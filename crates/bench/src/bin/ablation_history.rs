//! Regenerates the §6.7 ablation: tracking the last 2, 4, or 8 accessors
//! per memory location (instead of the default last-accessor/last-writer
//! pair) finds **no additional races** on any evaluated workload — the
//! justification for the 16-byte metadata entry.
//!
//! ```text
//! cargo run -p bench --release --bin ablation_history
//! ```

use bench::{gpu_config, par_map, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

const DEPTHS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    bench::switches([]);
    let set = workloads::racey();
    // One column per history depth: the distinct racing sites found.
    let columns = DEPTHS.map(|d| {
        par_map(set.clone(), |w| {
            let cfg = IguardConfig::with_history(d);
            bench::run_iguard(&w, Size::Test, gpu_config(DEFAULT_SEED), cfg)
                .sites
                .len()
        })
    });

    println!("Sec 6.7 ablation: races found vs accessor-history depth");
    println!();
    println!(
        "{:<15} {:>8} {:>8} {:>8} {:>8}",
        "workload", "depth 1", "depth 2", "depth 4", "depth 8"
    );
    println!("{}", "-".repeat(55));
    let mut any_new = false;
    for (i, w) in set.iter().enumerate() {
        let counts: Vec<Option<usize>> = columns
            .iter()
            .map(|col| col[i].as_ref().ok().copied())
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
