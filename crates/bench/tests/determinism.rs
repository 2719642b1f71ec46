//! Determinism regression: the simulator and detector must be pure
//! functions of `(workload, size, seed, mode)`. Running the same spec
//! twice must produce identical execution statistics and identical race
//! reports — under both the ITS scheduler (seeded warp splits) and
//! lockstep execution.

use bench::{gpu_config, run_iguard, run_native};
use gpu_sim::hook::ExecMode;
use gpu_sim::machine::GpuConfig;
use iguard::IguardConfig;
use workloads::Size;

const SEEDS: [u64; 3] = [1, 7, 42];
const MODES: [ExecMode; 2] = [ExecMode::Its, ExecMode::Lockstep];

fn cfg(seed: u64, mode: ExecMode) -> GpuConfig {
    GpuConfig {
        mode,
        ..gpu_config(seed)
    }
}

#[test]
fn native_stats_are_reproducible_across_seeds_and_modes() {
    let w = workloads::by_name("graph-color").unwrap();
    for seed in SEEDS {
        for mode in MODES {
            let a = run_native(&w, Size::Test, cfg(seed, mode));
            let b = run_native(&w, Size::Test, cfg(seed, mode));
            assert_eq!(
                a.stats, b.stats,
                "native LaunchStats diverged for seed={seed} mode={mode:?}"
            );
            assert_eq!(a.time, b.time, "simulated time diverged");
        }
    }
}

#[test]
fn iguard_reports_are_reproducible_across_seeds_and_modes() {
    for name in ["uts", "interac"] {
        let w = workloads::by_name(name).unwrap();
        for seed in SEEDS {
            for mode in MODES {
                let a = run_iguard(&w, Size::Test, cfg(seed, mode), IguardConfig::default());
                let b = run_iguard(&w, Size::Test, cfg(seed, mode), IguardConfig::default());
                assert_eq!(
                    a.driven.stats, b.driven.stats,
                    "{name}: LaunchStats diverged for seed={seed} mode={mode:?}"
                );
                assert_eq!(
                    a.sites, b.sites,
                    "{name}: race reports diverged for seed={seed} mode={mode:?}"
                );
                assert_eq!(a.stats.accesses, b.stats.accesses);
                assert_eq!(a.driven.time, b.driven.time);
            }
        }
    }
}

#[test]
fn different_seeds_still_find_the_seeded_races() {
    // Schedules differ per seed, but the seeded bugs are schedule-robust:
    // detection counts must not depend on the seed.
    let w = workloads::by_name("graph-color").unwrap();
    let counts: Vec<usize> = SEEDS
        .iter()
        .map(|&s| {
            run_iguard(&w, Size::Test, cfg(s, ExecMode::Its), IguardConfig::default())
                .sites
                .len()
        })
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "seed-dependent race counts: {counts:?}"
    );
    assert_eq!(counts[0], w.paper_races);
}
