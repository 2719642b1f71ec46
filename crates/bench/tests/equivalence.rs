//! Parallel-vs-serial equivalence: `par_map` over the experiment specs
//! must give, on the runs' full Debug forms, exactly what a plain serial
//! loop gives — the property that lets every table and figure run in
//! parallel and still print the same bytes.

use bench::{par_map, JobSpec, RunOutput, ToolSpec, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

/// A small racey + clean sample (kept quick: the whole sweep runs twice).
const SAMPLE: [&str; 6] = [
    "graph-color", // racey, atomic-scope
    "uts",         // racey, improper locking
    "interac",     // racey, ITS
    "b_reduce",    // clean
    "d_scan",      // clean
    "louvain",     // racey, multi-file
];

fn specs() -> Vec<JobSpec> {
    SAMPLE
        .iter()
        .flat_map(|name| {
            let w = workloads::by_name(name).expect("sample workload exists");
            [
                JobSpec::new(w, ToolSpec::Native, Size::Test, DEFAULT_SEED),
                JobSpec::new(
                    w,
                    ToolSpec::Iguard(IguardConfig::default()),
                    Size::Test,
                    DEFAULT_SEED,
                ),
            ]
        })
        .collect()
}

/// Debug form stripped of nothing: simulated results carry no wall-clock
/// or thread-dependent state, so the full Debug string must match.
fn render(out: &RunOutput) -> String {
    format!("{out:?}")
}

#[test]
fn parallel_results_are_byte_identical_to_serial() {
    let serial: Vec<String> = specs()
        .into_iter()
        .map(JobSpec::run)
        .map(|r| render(&r))
        .collect();
    let parallel: Vec<String> = par_map(specs(), JobSpec::run)
        .into_iter()
        .enumerate()
        .map(|(i, r)| render(&r.unwrap_or_else(|e| panic!("sample run {i} panicked: {e}"))))
        .collect();
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "result {i} diverged between the serial loop and par_map"
        );
    }
}
