//! Regenerates **Figure 13**: the breakdown of instrumented runtime into
//! Native / NVBit / Setup / Instrumentation / Detection / Misc., averaged
//! per benchmark suite. The paper's observations to reproduce: NVBit's
//! one-time analysis is often a key contributor; CG-suite apps are
//! detection-dominated (little computation); CUB apps are short-running so
//! framework overheads dominate.
//!
//! ```text
//! cargo run -p bench --release --bin fig13
//! ```

use std::collections::BTreeMap;

use bench::{gpu_config, par_map, BREAKDOWN_LABELS, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

fn main() {
    bench::switches([]);
    let set = workloads::all();
    let breakdowns = par_map(set.clone(), |w| {
        let cfg = IguardConfig::default();
        bench::run_iguard(&w, Size::Bench, gpu_config(DEFAULT_SEED), cfg).breakdown
    });

    println!("Figure 13: breakdown of application runtime under iGUARD (% of total)");
    println!();
    print!("{:<10}", "Suite");
    for l in BREAKDOWN_LABELS {
        print!(" {l:>16}");
    }
    println!();
    println!("{}", "-".repeat(10 + 17 * 6));

    let mut suites: BTreeMap<&str, ([f64; 6], usize)> = BTreeMap::new();
    let mut dnf = Vec::new();
    for (w, b) in set.iter().zip(&breakdowns) {
        let Ok(breakdown) = b else {
            dnf.push(w.name);
            continue;
        };
        let total: f64 = breakdown.iter().sum();
        let entry = suites.entry(w.suite.name()).or_insert(([0.0; 6], 0));
        for (sum, b) in entry.0.iter_mut().zip(breakdown) {
            *sum += b / total;
        }
        entry.1 += 1;
    }

    for (suite, (sums, n)) in suites {
        print!("{suite:<10}");
        for s in sums {
            print!(" {:>15.1}%", 100.0 * s / n as f64);
        }
        println!();
    }
    if !dnf.is_empty() {
        println!("DNF (excluded from averages): {}", dnf.join(", "));
    }
    println!();
    println!("paper observations to check:");
    println!("  - NVBit analysis is a visible contributor across suites");
    println!("  - CG suite is Detection-dominated (synchronization demos, little compute)");
    println!("  - CUB's short kernels are dominated by framework overheads");
}
