//! Fast integration gate over the two headline tables, at reduced sizes
//! and through `par_map`: every racey workload yields at least
//! its paper-reported race count (Table 4), and no race-free workload
//! yields any report at all (Table 5's zero-false-positive claim). A
//! third test pins the static-pruning traffic of every zoo member.

use bench::{drive, gpu_config, par_map, run_iguard, DEFAULT_SEED};
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
        let ps = tool.tool().prune_stats();
        (
            tool.instr_stats().skipped_mem,
            ps.static_safe_points,
            ps.static_mem_points,
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
