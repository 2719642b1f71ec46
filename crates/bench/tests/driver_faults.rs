//! Fault isolation in the experiment driver: a panicking job and a hung
//! job must each be reported as an isolated DNF while the rest of the
//! sweep completes and keeps its submission-order results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bench::{run_jobs, DriverConfig, Job, Outcome};

#[test]
fn panicking_job_is_isolated_and_reported() {
    let jobs = vec![
        Job::custom("ok-1", || 10u32),
        Job::custom("boom", || panic!("boom {}", 6 * 7)),
        Job::custom("ok-2", || 20u32),
    ];
    let out = run_jobs(jobs, &DriverConfig::parallel(2));
    assert_eq!(out.len(), 3);
    assert_eq!(out[0].value(), Some(&10));
    assert_eq!(out[2].value(), Some(&20));
    match &out[1] {
        Outcome::Panicked { message, .. } => {
            assert!(message.contains("boom 42"), "got {message:?}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(out[1].is_dnf());
    assert_eq!(out[1].dnf_cell(), Some("DNF(panic)"));
}

#[test]
fn injected_fault_deaths_are_classified_apart_from_panics() {
    let jobs = vec![
        Job::custom("fault", || -> u32 { panic!("injected fault: kernel-abort") }),
        Job::custom("bug", || -> u32 { panic!("index out of bounds") }),
    ];
    let out = run_jobs(jobs, &DriverConfig::serial());
    assert!(
        matches!(&out[0], Outcome::Faulted { message, .. } if message.contains("kernel-abort")),
        "expected Faulted, got {:?}",
        out[0]
    );
    assert_eq!(out[0].dnf_cell(), Some("DNF(fault)"));
    assert!(matches!(out[1], Outcome::Panicked { .. }));
    assert_eq!(out[1].dnf_cell(), Some("DNF(panic)"));
}

#[test]
fn panicking_job_is_isolated_in_serial_mode_too() {
    let jobs = vec![
        Job::custom("boom", || panic!("first job dies")),
        Job::custom("ok", || 7u32),
    ];
    let out = run_jobs(jobs, &DriverConfig::serial());
    assert!(matches!(out[0], Outcome::Panicked { .. }));
    assert_eq!(out[1].value(), Some(&7));
}

/// Release valve for the hung job: the worker thread is leaked past its
/// deadline, so the spin must stop once the test has its verdict or the
/// abandoned thread would burn a core for the rest of the test run.
static RELEASE_HUNG: AtomicBool = AtomicBool::new(false);

#[test]
fn hung_job_times_out_while_sweep_completes() {
    let mut cfg = DriverConfig::parallel(2);
    cfg.timeout = Some(Duration::from_millis(200));
    cfg.progress = false;
    let jobs = vec![
        Job::custom("ok-1", || 1u32),
        Job::custom("hang", || {
            // A cycle-budget spin standing in for a non-terminating
            // kernel; yields so the 1-core CI box can still run peers.
            while !RELEASE_HUNG.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            0u32
        }),
        Job::custom("ok-2", || 2u32),
        Job::custom("ok-3", || 3u32),
    ];
    let out = run_jobs(jobs, &cfg);
    RELEASE_HUNG.store(true, Ordering::Relaxed);

    assert_eq!(out.len(), 4);
    assert_eq!(out[0].value(), Some(&1));
    assert!(
        matches!(out[1], Outcome::TimedOut { .. }),
        "hung job must be declared DNF, got {:?}",
        out[1]
    );
    // The replacement worker spawned at the deadline finished the queue.
    assert_eq!(out[2].value(), Some(&2));
    assert_eq!(out[3].value(), Some(&3));
}

#[test]
fn outcomes_preserve_submission_order_under_contention() {
    // Many quick jobs racing over few workers: values must come back in
    // submission order regardless of completion order.
    let jobs: Vec<Job<usize>> = (0..64)
        .map(|i| {
            Job::custom(format!("j{i}"), move || {
                if i % 7 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                i
            })
        })
        .collect();
    let out = run_jobs(jobs, &DriverConfig::parallel(4));
    let values: Vec<usize> = out.into_iter().filter_map(Outcome::into_value).collect();
    assert_eq!(values, (0..64).collect::<Vec<_>>());
}
