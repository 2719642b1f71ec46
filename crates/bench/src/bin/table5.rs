//! Regenerates **Table 5**: the race-free applications. iGUARD (and
//! Barracuda where it runs) must report zero races — the paper's
//! no-false-positives claim.
//!
//! ```text
//! cargo run -p bench --release --bin table5
//! ```

use bench::{gpu_config, par_map, BarracudaRun, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

fn main() {
    bench::switches([]);
    let table = workloads::clean();
    let iguard = par_map(table.clone(), |w| {
        let cfg = IguardConfig::default();
        bench::run_iguard(&w, Size::Test, gpu_config(DEFAULT_SEED), cfg)
            .sites
            .len()
    });
    let barracuda = par_map(table.clone(), |w| {
        let cfg = bench::barracuda_config_for();
        bench::run_barracuda(&w, Size::Test, gpu_config(DEFAULT_SEED), cfg)
    });

    println!("Table 5: Applications without any reported races");
    println!();
    println!(
        "{:<10} {:<15} {:>7} {:>10}",
        "Suite", "Application", "iGUARD", "Barracuda"
    );
    println!("{}", "-".repeat(50));
    let mut false_positives = 0;
    let mut dnf = 0usize;
    for ((w, ig), bar) in table.iter().zip(&iguard).zip(&barracuda) {
        let ig_str = match ig {
            Ok(races) => {
                false_positives += races;
                races.to_string()
            }
            Err(_) => {
                dnf += 1;
                "DNF".to_string()
            }
        };
        let bar_str = match bar {
            Err(_) => {
                dnf += 1;
                "DNF".to_string()
            }
            Ok(BarracudaRun::Unsupported(_)) => "unsup".to_string(),
            Ok(BarracudaRun::Ran { races, .. }) => {
                false_positives += races;
                races.to_string()
            }
        };
        println!(
            "{:<10} {:<15} {:>7} {:>10}",
            w.suite.name(),
            w.name,
            ig_str,
            bar_str
        );
    }
    println!("{}", "-".repeat(50));
    if dnf > 0 {
        println!("({dnf} run(s) did not finish; see DNF rows)");
    }
    if false_positives == 0 {
        println!(
            "zero false positives across all {} race-free workloads ✓",
            workloads::clean().len()
        );
    } else {
        println!("!! {false_positives} FALSE POSITIVES — reproduction broken");
        std::process::exit(1);
    }
}
