//! Regenerates **Table 4**: races detected by Barracuda and iGUARD across
//! the racey workloads, with race types.
//!
//! ```text
//! cargo run -p bench --release --bin table4 [-- --bench]
//! ```
//!
//! `--bench` re-runs detection at the larger benchmark grid sizes; counts
//! must be identical (the seeded sites are scale-invariant).

use bench::{kinds_summary, par_map, BarracudaRun, JobSpec, RunOutput, ToolSpec, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::{BarracudaExpectation, Size};

fn main() {
    let size = if std::env::args().any(|a| a == "--bench") {
        Size::Bench
    } else {
        Size::Test
    };

    // One iGUARD and one Barracuda run per racey workload, in table
    // order; `par_map` returns results in the same order.
    let table = workloads::racey();
    let mut specs = Vec::new();
    for w in &table {
        specs.push(JobSpec::new(
            *w,
            ToolSpec::Iguard(IguardConfig::default()),
            size,
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

    println!("Table 4: Races detected by Barracuda and iGUARD");
    println!("(paper column = counts reported in the paper; measured = this reproduction)");
    println!();
    println!(
        "{:<10} {:<15} {:>6} {:>9} {:<14} {:>10}  (paper Barracuda)",
        "Suite", "Application", "paper", "measured", "types", "Barracuda"
    );
    println!("{}", "-".repeat(90));

    let mut total_paper = 0;
    let mut total_measured = 0;
    let mut mismatches = Vec::new();
    let mut dnf = 0usize;
    for (i, w) in table.iter().enumerate() {
        let ig = outcomes[2 * i].as_ref().ok().and_then(RunOutput::iguard);
        let bar = outcomes[2 * i + 1]
            .as_ref()
            .ok()
            .and_then(RunOutput::barracuda);
        total_paper += w.paper_races;

        let (measured_str, types_str) = match ig {
            Some(r) => {
                total_measured += r.sites.len();
                if r.sites.len() != w.paper_races {
                    mismatches.push((w.name, w.paper_races, r.sites.len(), r.sites.clone()));
                }
                (r.sites.len().to_string(), kinds_summary(&r.sites))
            }
            None => {
                dnf += 1;
                ("DNF".to_string(), String::new())
            }
        };
        let bar_str = match bar {
            None => {
                dnf += 1;
                "DNF".to_string()
            }
            Some(BarracudaRun::Unsupported(u)) => format!("unsup({u})"),
            Some(BarracudaRun::Ran { races, failure, .. }) => match failure {
                Some(barracuda::BarracudaFailure::DidNotTerminate) => format!("{races}*"),
                Some(barracuda::BarracudaFailure::OutOfMemory { .. }) => "OOM".to_string(),
                None => races.to_string(),
            },
        };
        let paper_bar = match w.barracuda {
            BarracudaExpectation::Unsupported => "unsup".to_string(),
            BarracudaExpectation::Races(n) => n.to_string(),
            BarracudaExpectation::Timeout(n) => format!("{n}*"),
        };
        println!(
            "{:<10} {:<15} {:>6} {:>9} {:<14} {:>10}  ({})",
            w.suite.name(),
            w.name,
            w.paper_races,
            measured_str,
            types_str,
            bar_str,
            paper_bar,
        );
    }
    println!("{}", "-".repeat(90));
    println!("TOTAL: paper {total_paper} races, measured {total_measured} races");
    if dnf > 0 {
        println!("({dnf} run(s) did not finish; see DNF rows)");
    }
    if !mismatches.is_empty() {
        println!("\nmismatched workloads:");
        for (name, paper, measured, sites) in &mismatches {
            println!("  {name}: paper {paper}, measured {measured}");
            for s in sites {
                println!(
                    "    [{}] pc {} kinds {:?} {}",
                    s.kernel,
                    s.pc,
                    s.kinds.iter().map(|k| k.code()).collect::<Vec<_>>(),
                    s.line.as_deref().unwrap_or("")
                );
            }
        }
    }
}
