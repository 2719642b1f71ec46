//! Accuracy under metadata pressure: how detection degrades — and how
//! honestly the degradation is accounted — when the metadata table is
//! capacity-capped or under an injected eviction storm.
//!
//! ```text
//! cargo run -p bench --release --bin pressure
//! ```
//!
//! For each workload the sweep runs the detector at full table capacity
//! (today's behaviour), at three shrinking entry capacities (bounded
//! eviction: distinct words contend for slots and live metadata is
//! forgotten), and under an injected eviction storm at full capacity.
//! Every row reports the detected race sites next to the detector's own
//! missed-check accounting, and cross-checks the invariant
//! `missed_checks == capacity_evictions + injected_evictions +
//! injected_aliases`. The table feeds EXPERIMENTS.md §"Accuracy under
//! pressure".

use faults::{FaultConfig, FaultSite, RATE_ONE};
use iguard::IguardConfig;
use workloads::Size;

use bench::{gpu_config, par_map, run_iguard};

/// Workloads covering the interesting regimes: two racy kernels whose
/// sites can be lost to eviction, one clean kernel that must stay clean.
const WORKLOADS: [&str; 3] = ["reduction", "graph-color", "b_reduce"];

/// The pressure arms, per workload.
#[derive(Clone, Copy)]
enum Arm {
    Full,
    Cap(usize),
    EvictStorm,
}

impl Arm {
    fn label(self) -> String {
        match self {
            Arm::Full => "full".into(),
            Arm::Cap(n) => format!("cap={n}"),
            Arm::EvictStorm => "evict-storm".into(),
        }
    }

    fn config(self) -> IguardConfig {
        let mut cfg = IguardConfig::default();
        match self {
            Arm::Full => {}
            Arm::Cap(n) => cfg.table_capacity_words = Some(n),
            Arm::EvictStorm => {
                // ~3% of loads lose their entry to the fault plane.
                cfg.faults = FaultConfig::disabled()
                    .with_seed(7)
                    .with_rate(FaultSite::MetaEviction, RATE_ONE / 32);
            }
        }
        cfg
    }
}

const ARMS: [Arm; 5] = [
    Arm::Full,
    Arm::Cap(1024),
    Arm::Cap(256),
    Arm::Cap(64),
    Arm::EvictStorm,
];

fn main() {
    bench::switches([]);

    let items = WORKLOADS
        .iter()
        .flat_map(|name| ARMS.iter().map(move |arm| (*name, *arm)))
        .collect();
    let runs: Vec<_> = par_map(items, |(name, arm)| {
        let w = workloads::by_name(name).expect("workload list is static");
        run_iguard(&w, Size::Test, gpu_config(42), arm.config())
    })
    .into_iter()
    .map(|run| run.expect("a pressure run does not panic"))
    .collect();

    println!("Accuracy under metadata pressure (Size::Test, seed 42)");
    println!(
        "{:<12} {:<12} {:>5} {:>8} {:>9} {:>9} {:>9}  accounted",
        "workload", "arm", "sites", "missed", "cap-ev", "inj-ev", "accesses"
    );
    println!("{}", "-".repeat(86));

    let mut full_sites = 0usize;
    let mut bad = 0usize;
    for (i, run) in runs.iter().enumerate() {
        let (name, arm) = (WORKLOADS[i / ARMS.len()], ARMS[i % ARMS.len()]);
        let d = run.degradation;
        if matches!(arm, Arm::Full) {
            full_sites = run.sites.len();
        }
        let accounted = d.fully_accounted();
        bad += usize::from(!accounted);
        let note = match arm {
            Arm::Full => String::new(),
            _ if run.sites.len() < full_sites => {
                format!("  (lost {} site(s))", full_sites - run.sites.len())
            }
            _ => String::new(),
        };
        println!(
            "{:<12} {:<12} {:>5} {:>8} {:>9} {:>9} {:>9}  {}{}",
            name,
            arm.label(),
            run.sites.len(),
            d.missed_checks,
            d.meta.capacity_evictions,
            d.meta.injected_evictions + d.meta.injected_aliases,
            run.stats.accesses,
            if accounted { "yes" } else { "NO" },
            note,
        );
    }
    println!("{}", "-".repeat(86));
    if bad > 0 {
        println!("{bad} row(s) with unaccounted degradation");
        std::process::exit(1);
    }
    println!("every missed check is accounted (missed == cap-ev + inj-ev)");
}
