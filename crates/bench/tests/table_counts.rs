//! Fast integration gate over the two headline tables, at reduced sizes
//! and through `par_map`: every racey workload yields at least
//! its paper-reported race count (Table 4), and no race-free workload
//! yields any report at all (Table 5's zero-false-positive claim). A
//! third test pins the static-pruning traffic of every zoo member, and a
//! fourth the kernel-global shape of the static verdicts it rests on.

use bench::{drive, gpu_config, par_map, run_iguard, DEFAULT_SEED};
use gpu_sim::kernel::Kernel;
use gpu_sim::prelude::Gpu;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use workloads::{Size, Workload};

/// Each workload of `set` with the distinct racing sites iGUARD finds.
fn iguard_sweep(set: Vec<Workload>) -> Vec<(Workload, usize)> {
    let found = par_map(set.clone(), |w| {
        let run = run_iguard(
            &w,
            Size::Test,
            gpu_config(DEFAULT_SEED),
            IguardConfig::default(),
        );
        run.sites.len()
    });
    set.into_iter()
        .zip(found)
        .map(|(w, n)| match n {
            Ok(n) => (w, n),
            Err(e) => panic!("{} did not finish: {e}", w.name),
        })
        .collect()
}

#[test]
fn table4_counts_iguard_detects_at_least_the_paper_races() {
    let mut total = 0;
    for (w, found) in iguard_sweep(workloads::racey()) {
        assert!(
            found >= w.paper_races,
            "{}: found {found} races, paper reports {}",
            w.name,
            w.paper_races
        );
        total += found;
    }
    assert!(
        total >= 57,
        "Table 4 total must reach the paper's 57, got {total}"
    );
}

#[test]
fn table5_counts_no_false_positives_on_clean_workloads() {
    for (w, found) in iguard_sweep(workloads::clean()) {
        assert_eq!(found, 0, "{}: {found} false positive(s)", w.name);
    }
}

/// Every zoo member at `Size::Test` under `PruneMode::On`, in
/// `workloads::all()` order: (name, dynamic accesses the bitmap skipped,
/// static points proved safe, static global-memory points). Only rule B
/// (atomic-protected) fires on the zoo, on one kernel each of four
/// workloads; every other member skips nothing.
const PRUNE_TRAFFIC: [(&str, u64, u64, u64); 43] = [
    ("matrix-mult", 0, 0, 9),
    ("1dconv", 0, 0, 6),
    ("graph-con", 0, 0, 8),
    ("reduction", 0, 0, 13),
    ("rule-110", 0, 0, 6),
    ("uts", 0, 0, 12),
    ("graph-color", 0, 0, 8),
    ("conjugGMB", 0, 0, 7),
    ("reduceMB", 0, 0, 11),
    ("grid_sync", 0, 0, 5),
    ("louvain", 0, 0, 5),
    ("pr_nibble", 0, 0, 3),
    ("sm", 0, 0, 2),
    ("color", 0, 0, 3),
    ("mis", 0, 0, 4),
    ("cc", 0, 0, 6),
    ("slabhash_test", 0, 0, 3),
    ("cuML_gsync", 0, 0, 5),
    ("interac", 0, 0, 7),
    ("hashtable", 0, 0, 4),
    ("shocbfs", 0, 0, 5),
    ("cub_gridbar", 0, 0, 5),
    ("b_reduce", 0, 0, 5),
    ("b_scan", 0, 0, 3),
    ("b_radix_sort", 0, 0, 3),
    ("d_reduce", 0, 0, 7),
    ("d_scan", 0, 0, 10),
    ("d_radix_sort", 16, 2, 5),
    ("d_sel_if", 0, 0, 3),
    ("d_sel_flag", 0, 0, 4),
    ("d_sel_uniq", 0, 0, 4),
    ("d_part_if", 0, 0, 5),
    ("d_part_flag", 0, 0, 6),
    ("d_sort_find", 0, 0, 5),
    ("dwt2d", 0, 0, 6),
    ("needle", 0, 0, 8),
    ("hotspot", 0, 0, 8),
    ("hybridsort", 16, 2, 5),
    ("nn", 16, 2, 2),
    ("pathfinder", 0, 0, 8),
    ("kmeans", 34, 4, 7),
    ("srad", 0, 0, 8),
    ("warpAA", 0, 0, 2),
];

#[test]
fn pruning_traffic_over_the_zoo_is_pinned() {
    let zoo = workloads::all();
    let names: Vec<&str> = zoo.iter().map(|w| w.name).collect();
    let got = par_map(zoo, |w| {
        let mut gpu = Gpu::new(gpu_config(DEFAULT_SEED));
        let launches = w.build(&mut gpu, Size::Test);
        let mut tool = Instrumented::new(Iguard::new(IguardConfig::with_prune()));
        drive(&mut gpu, &launches, &mut tool, w.name, |_| false);
        let instr = tool.instr_stats();
        // The kernels the run instrumented: each distinct body that has a
        // global-memory point (the others never reach the framework).
        let classes: Vec<_> = distinct_kernels(launches.iter().map(|l| &l.kernel))
            .into_iter()
            .map(static_an::analyze)
            .filter(|c| c.mem_points > 0)
            .collect();
        assert_eq!(classes.len() as u64, instr.analyzed_kernels, "{}", w.name);
        (
            instr.skipped_mem,
            classes.iter().map(|c| c.safe_points as u64).sum::<u64>(),
            classes.iter().map(|c| c.mem_points as u64).sum::<u64>(),
        )
    });
    let got: Vec<_> = names
        .into_iter()
        .zip(got)
        .map(|(name, g)| {
            let (skipped, safe, mem) = g.unwrap_or_else(|e| panic!("{name} did not finish: {e}"));
            (name, skipped, safe, mem)
        })
        .collect();
    assert_eq!(got, PRUNE_TRAFFIC);
}

/// Each distinct kernel (by name and body) of `kernels`, first sight first.
fn distinct_kernels<'a>(kernels: impl IntoIterator<Item = &'a Kernel>) -> Vec<&'a Kernel> {
    let mut seen: Vec<&Kernel> = Vec::new();
    for k in kernels {
        if !seen.iter().any(|s| s.name == k.name && s.code == k.code) {
            seen.push(k);
        }
    }
    seen
}

/// Both static rules are kernel-global: a kernel's global-memory points
/// are all safe or none is. That is what lets a pruned run dispatch no
/// memory callback at all for a kernel it prunes, and so lets the site
/// diff of `oracle::static_diff` (a report the full run made that the
/// pruned run lost) catch any unsound verdict. Pinned over every zoo
/// kernel and every spec of the oracle corpus.
#[test]
fn static_verdicts_are_kernel_global() {
    let corpus = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/oracle.corpus"
    ))
    .expect("read the oracle corpus");
    let specs: Vec<Kernel> = oracle::corpus::parse(&corpus)
        .expect("parse the oracle corpus")
        .iter()
        .map(|e| e.spec.build())
        .collect();
    assert!(!specs.is_empty());
    let mut zoo = Vec::new();
    for w in workloads::all() {
        let mut gpu = Gpu::new(gpu_config(DEFAULT_SEED));
        zoo.extend(w.build(&mut gpu, Size::Test).into_iter().map(|l| l.kernel));
    }
    let (mut pruned, mut kept) = (0, 0);
    for k in distinct_kernels(zoo.iter().chain(&specs)) {
        let c = static_an::analyze(k);
        assert!(
            c.safe_points == 0 || c.safe_points == c.mem_points,
            "{}: {} of {} global-memory points safe",
            k.name,
            c.safe_points,
            c.mem_points
        );
        if c.safe_points > 0 {
            pruned += 1;
        } else if c.mem_points > 0 {
            kept += 1;
        }
    }
    // Both verdicts occur, so neither arm of the assertion is vacuous.
    assert!(pruned > 0 && kept > 0, "{pruned} pruned, {kept} kept");
}
