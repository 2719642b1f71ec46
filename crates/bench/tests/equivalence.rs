//! Parallel-vs-serial equivalence: `par_map` over a tool column must
//! give, on the runs' full Debug forms, exactly what a plain serial loop
//! gives — the property that lets every table and figure run in parallel
//! and still print the same bytes.

use std::fmt::Debug;

use bench::{gpu_config, par_map, run_iguard, run_native, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::{Size, Workload};

/// A small racey + clean sample (kept quick: each column runs twice).
const SAMPLE: [&str; 6] = [
    "graph-color", // racey, atomic-scope
    "uts",         // racey, improper locking
    "interac",     // racey, ITS
    "b_reduce",    // clean
    "d_scan",      // clean
    "louvain",     // racey, multi-file
];

fn sample() -> Vec<Workload> {
    SAMPLE
        .iter()
        .map(|name| workloads::by_name(name).expect("sample workload exists"))
        .collect()
}

/// Runs `run` over the sample serially and through `par_map`, and
/// compares the Debug forms run by run: simulated results carry no
/// wall-clock or thread-dependent state, so nothing is stripped.
fn assert_parallel_matches_serial<T: Debug + Send>(
    column: &str,
    run: impl Fn(Workload) -> T + Sync,
) {
    let serial: Vec<String> = sample()
        .into_iter()
        .map(|w| format!("{:?}", run(w)))
        .collect();
    let parallel: Vec<String> = par_map(sample(), &run)
        .into_iter()
        .zip(SAMPLE)
        .map(|(r, name)| match r {
            Ok(r) => format!("{r:?}"),
            Err(e) => panic!("{column} run of {name} panicked: {e}"),
        })
        .collect();
    assert_eq!(serial.len(), parallel.len());
    for ((s, p), name) in serial.iter().zip(&parallel).zip(SAMPLE) {
        assert_eq!(
            s, p,
            "{column} run of {name} diverged between the serial loop and par_map"
        );
    }
}

#[test]
fn parallel_results_are_byte_identical_to_serial() {
    assert_parallel_matches_serial("native", |w| {
        run_native(&w, Size::Test, gpu_config(DEFAULT_SEED))
    });
    assert_parallel_matches_serial("iGUARD", |w| {
        run_iguard(
            &w,
            Size::Test,
            gpu_config(DEFAULT_SEED),
            IguardConfig::default(),
        )
    });
}
