//! Fast integration gate over the two headline tables, at reduced sizes
//! and through `par_map`: every racey workload yields at least
//! its paper-reported race count (Table 4), and no race-free workload
//! yields any report at all (Table 5's zero-false-positive claim).

use bench::{gpu_config, par_map, run_iguard, DEFAULT_SEED};
use iguard::IguardConfig;
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
