//! Regenerates the §6.7 ablation: tracking the last 2, 4, or 8 accessors
//! per memory location (instead of the default last-accessor/last-writer
//! pair) finds **no additional races** on any evaluated workload — the
//! justification for the 16-byte metadata entry.
//!
//! ```text
//! cargo run -p bench --release --bin ablation_history
//! ```

use bench::{par_map, JobSpec, RunOutput, ToolSpec, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

const DEPTHS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    bench::switches([]);
    let set = workloads::racey();
    let mut specs = Vec::new();
    for w in &set {
        for d in DEPTHS {
            specs.push(JobSpec::new(
                *w,
                ToolSpec::Iguard(IguardConfig::with_history(d)),
                Size::Test,
                DEFAULT_SEED,
            ));
        }
    }
    let outcomes = par_map(specs, JobSpec::run);

    println!("Sec 6.7 ablation: races found vs accessor-history depth");
    println!();
    println!(
        "{:<15} {:>8} {:>8} {:>8} {:>8}",
        "workload", "depth 1", "depth 2", "depth 4", "depth 8"
    );
    println!("{}", "-".repeat(55));
    let mut any_new = false;
    for (i, w) in set.iter().enumerate() {
        let counts: Vec<Option<usize>> = (0..DEPTHS.len())
            .map(|j| {
                outcomes[i * DEPTHS.len() + j]
                    .as_ref()
                    .ok()
                    .and_then(RunOutput::iguard)
                    .map(|r| r.sites.len())
            })
            .collect();
        let cell = |c: Option<usize>| match c {
            Some(n) => n.to_string(),
            None => "DNF".to_string(),
        };
        println!(
            "{:<15} {:>8} {:>8} {:>8} {:>8}",
            w.name,
            cell(counts[0]),
            cell(counts[1]),
            cell(counts[2]),
            cell(counts[3])
        );
        if counts.iter().flatten().any(|&c| Some(c) != counts[0]) {
            any_new = true;
        }
    }
    println!("{}", "-".repeat(55));
    if any_new {
        println!("!! deeper history changed the result — unlike the paper's finding");
    } else {
        println!("deeper history finds no additional races — matches Sec 6.7");
    }
}
