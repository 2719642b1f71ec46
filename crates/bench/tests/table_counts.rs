//! Fast integration gate over the two headline tables, at reduced sizes
//! and through `par_map`: every racey workload yields at least
//! its paper-reported race count (Table 4), and no race-free workload
//! yields any report at all (Table 5's zero-false-positive claim).

use bench::{par_map, JobSpec, RunOutput, ToolSpec, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

fn iguard_sweep(set: Vec<workloads::Workload>) -> Vec<(workloads::Workload, usize)> {
    let specs = set
        .iter()
        .map(|w| {
            JobSpec::new(
                *w,
                ToolSpec::Iguard(IguardConfig::default()),
                Size::Test,
                DEFAULT_SEED,
            )
        })
        .collect();
    set.into_iter()
        .zip(par_map(specs, JobSpec::run))
        .map(|(w, o)| match o {
            Ok(RunOutput::Iguard(r)) => (w, r.sites.len()),
            other => panic!("{} did not finish: {other:?}", w.name),
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
    assert!(total >= 57, "Table 4 total must reach the paper's 57, got {total}");
}

#[test]
fn table5_counts_no_false_positives_on_clean_workloads() {
    for (w, found) in iguard_sweep(workloads::clean()) {
        assert_eq!(found, 0, "{}: {found} false positive(s)", w.name);
    }
}
