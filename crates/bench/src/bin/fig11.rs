//! Regenerates **Figure 11**: performance overhead of iGUARD and Barracuda
//! normalized to native execution, (a) racey applications, (b) race-free
//! applications. The paper's headline shape: iGUARD ≈ 5.1× mean across all
//! workloads, Barracuda ≈ 61× on the race-free set it can run, ≈ 15× gap
//! on the common subset.
//!
//! ```text
//! cargo run -p bench --release --bin fig11 [-- --prune]
//! ```
//!
//! With `--prune`, each workload also runs iGUARD with the static
//! pre-analysis pass enabled (`IguardConfig::with_prune()`) and the table
//! gains a `pruned` column plus a geomean comparison — the fig11-style
//! view of how much overhead the hybrid static/dynamic mode removes.
//! Without the flag the binary is byte-identical to the previous output.

use bench::{geomean, par_map, BarracudaRun, JobSpec, RunOutput, ToolSpec, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

/// Per-workload overheads extracted from the per-workload results
/// (`native, iguard[, pruned], barracuda`):
/// `(iguard_over, pruned_over, barracuda_over, note)`.
fn row(
    outcomes: &[Result<RunOutput, String>],
) -> Option<(f64, Option<f64>, Option<f64>, &'static str)> {
    let native = outcomes[0].as_ref().ok()?.native()?;
    let ig = outcomes[1].as_ref().ok()?.iguard()?;
    let ig_over = ig.time / native.time;
    let pruned_over = (outcomes.len() == 4)
        .then(|| {
            outcomes[2]
                .as_ref()
                .ok()?
                .iguard()
                .map(|p| p.time / native.time)
        })
        .flatten();
    let Some(bar) = outcomes[outcomes.len() - 1]
        .as_ref()
        .ok()
        .and_then(RunOutput::barracuda)
    else {
        return Some((ig_over, pruned_over, None, "DNF"));
    };
    Some(match bar {
        BarracudaRun::Unsupported(_) => (ig_over, pruned_over, None, "unsupported"),
        BarracudaRun::Ran { time, failure, .. } => {
            let over = time / native.time;
            match failure {
                Some(barracuda::BarracudaFailure::DidNotTerminate) => {
                    (ig_over, pruned_over, Some(over), "timeout")
                }
                Some(barracuda::BarracudaFailure::OutOfMemory { .. }) => {
                    (ig_over, pruned_over, None, "oom")
                }
                None => (ig_over, pruned_over, Some(over), ""),
            }
        }
    })
}

fn main() {
    let [prune] = bench::switches(["--prune"]);
    let stride = if prune { 4 } else { 3 };

    let sets = [
        ("(a) applications with races", workloads::racey()),
        ("(b) race-free", workloads::clean()),
    ];
    // Three runs per workload — native, iGUARD, Barracuda — in figure
    // order across both panels; `--prune` inserts a fourth (iGUARD with
    // the static pre-analysis pass) between iGUARD and Barracuda.
    let mut specs = Vec::new();
    for (_, set) in &sets {
        for w in set {
            specs.push(JobSpec::new(
                *w,
                ToolSpec::Native,
                Size::Bench,
                DEFAULT_SEED,
            ));
            specs.push(JobSpec::new(
                *w,
                ToolSpec::Iguard(IguardConfig::default()),
                Size::Bench,
                DEFAULT_SEED,
            ));
            if prune {
                specs.push(JobSpec::new(
                    *w,
                    ToolSpec::Iguard(IguardConfig::with_prune()),
                    Size::Bench,
                    DEFAULT_SEED,
                ));
            }
            specs.push(JobSpec::new(
                *w,
                ToolSpec::Barracuda(bench::barracuda_config_for()),
                Size::Bench,
                DEFAULT_SEED,
            ));
        }
    }
    let outcomes = par_map(specs, JobSpec::run);

    let mut all_ig = Vec::new();
    let mut all_pruned = Vec::new();
    let mut common_ig = Vec::new();
    let mut common_bar = Vec::new();
    let mut cursor = 0usize;

    for (label, set) in &sets {
        println!("Figure 11 {label}");
        if prune {
            println!(
                "{:<15} {:>9} {:>9} {:>11}  note",
                "workload", "iGUARD", "pruned", "Barracuda"
            );
            println!("{}", "-".repeat(60));
        } else {
            println!(
                "{:<15} {:>9} {:>11}  note",
                "workload", "iGUARD", "Barracuda"
            );
            println!("{}", "-".repeat(50));
        }
        let mut ig_set = Vec::new();
        let mut pruned_set = Vec::new();
        let mut bar_set = Vec::new();
        for w in set {
            let group = &outcomes[cursor..cursor + stride];
            cursor += stride;
            let Some((ig, pr, bar, note)) = row(group) else {
                if prune {
                    println!("{:<15} {:>9} {:>9} {:>11}  DNF", w.name, "-", "-", "-");
                } else {
                    println!("{:<15} {:>9} {:>11}  DNF", w.name, "-", "-");
                }
                continue;
            };
            all_ig.push(ig);
            ig_set.push(ig);
            if let Some(p) = pr {
                all_pruned.push(p);
                pruned_set.push(p);
            }
            let bar_str = match bar {
                Some(b) if note != "timeout" => {
                    bar_set.push(b);
                    common_ig.push(ig);
                    common_bar.push(b);
                    format!("{b:10.1}x")
                }
                Some(b) => format!("{b:9.1}x*"),
                None => "-".to_string(),
            };
            if prune {
                let pr_str = pr.map_or("-".to_string(), |p| format!("{p:8.1}x"));
                println!(
                    "{:<15} {:>8.1}x {:>9} {:>11}  {note}",
                    w.name, ig, pr_str, bar_str
                );
            } else {
                println!("{:<15} {:>8.1}x {:>11}  {note}", w.name, ig, bar_str);
            }
        }
        println!(
            "set geomean: iGUARD {:.1}x{}{}",
            geomean(&ig_set),
            if pruned_set.is_empty() {
                String::new()
            } else {
                format!(", pruned {:.1}x", geomean(&pruned_set))
            },
            if bar_set.is_empty() {
                String::new()
            } else {
                format!(
                    ", Barracuda {:.1}x (n={})",
                    geomean(&bar_set),
                    bar_set.len()
                )
            }
        );
        println!();
    }

    println!("== summary vs paper ==");
    let amean = all_ig.iter().sum::<f64>() / all_ig.len() as f64;
    println!(
        "iGUARD all workloads: {:.1}x arithmetic mean, {:.1}x geomean   (paper: 5.1x mean over 42)",
        amean,
        geomean(&all_ig)
    );
    if !all_pruned.is_empty() {
        let gf = geomean(&all_ig);
        let gp = geomean(&all_pruned);
        println!(
            "with static pruning:  {:.1}x geomean ({:.1}% less overhead, n={})",
            gp,
            100.0 * (1.0 - gp / gf),
            all_pruned.len()
        );
    }
    if !common_bar.is_empty() {
        let gi = geomean(&common_ig);
        let gb = geomean(&common_bar);
        println!(
            "common subset (n={}): iGUARD {gi:.1}x vs Barracuda {gb:.1}x — ratio {:.1}x   (paper: 3.9x vs 58.9x, ratio ~15x)",
            common_bar.len(),
            gb / gi
        );
    }
}
