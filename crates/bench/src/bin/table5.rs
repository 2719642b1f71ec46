//! Regenerates **Table 5**: the race-free applications. iGUARD (and
//! Barracuda where it runs) must report zero races — the paper's
//! no-false-positives claim.
//!
//! ```text
//! cargo run -p bench --release --bin table5
//! ```

use bench::{par_map, BarracudaRun, JobSpec, RunOutput, ToolSpec, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

fn main() {
    let table = workloads::clean();
    let mut specs = Vec::new();
    for w in &table {
        specs.push(JobSpec::new(
            *w,
            ToolSpec::Iguard(IguardConfig::default()),
            Size::Test,
            DEFAULT_SEED,
        ));
        specs.push(JobSpec::new(
            *w,
            ToolSpec::Barracuda(bench::barracuda_config_for()),
            Size::Test,
            DEFAULT_SEED,
        ));
    }
    let outcomes = par_map(specs, JobSpec::run);

    println!("Table 5: Applications without any reported races");
    println!();
    println!(
        "{:<10} {:<15} {:>7} {:>10}",
        "Suite", "Application", "iGUARD", "Barracuda"
    );
    println!("{}", "-".repeat(50));
    let mut false_positives = 0;
    let mut dnf = 0usize;
    for (i, w) in table.iter().enumerate() {
        let ig = outcomes[2 * i].as_ref().ok().and_then(RunOutput::iguard);
        let bar = outcomes[2 * i + 1]
            .as_ref()
            .ok()
            .and_then(RunOutput::barracuda);
        let ig_str = match ig {
            Some(r) => {
                false_positives += r.sites.len();
                r.sites.len().to_string()
            }
            None => {
                dnf += 1;
                "DNF".to_string()
            }
        };
        let bar_str = match bar {
            None => {
                dnf += 1;
                "DNF".to_string()
            }
            Some(BarracudaRun::Unsupported(_)) => "unsup".to_string(),
            Some(BarracudaRun::Ran { races, .. }) => {
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
