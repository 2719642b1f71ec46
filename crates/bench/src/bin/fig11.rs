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

use barracuda::BarracudaFailure;
use bench::{geomean, gpu_config, par_map, BarracudaRun, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

fn main() {
    let [prune] = bench::switches(["--prune"]);

    let sets = [
        ("(a) applications with races", workloads::racey()),
        ("(b) race-free", workloads::clean()),
    ];
    // One column per tool over both panels' workloads, in figure order:
    // native, iGUARD, iGUARD with the static pre-analysis pass (empty
    // without `--prune`) and Barracuda.
    let all: Vec<_> = sets.iter().flat_map(|(_, set)| set.clone()).collect();
    let iguard_time = |cfg: IguardConfig| {
        par_map(all.clone(), move |w| {
            let gcfg = gpu_config(DEFAULT_SEED);
            bench::run_iguard(&w, Size::Bench, gcfg, cfg.clone())
                .driven
                .time
        })
    };
    let native = par_map(all.clone(), |w| {
        bench::run_native(&w, Size::Bench, gpu_config(DEFAULT_SEED)).time
    });
    let iguard = iguard_time(IguardConfig::default());
    let pruned = if prune {
        iguard_time(IguardConfig::with_prune())
    } else {
        Vec::new()
    };
    let barracuda = par_map(all.clone(), |w| {
        let cfg = bench::barracuda_config_for();
        bench::run_barracuda(&w, Size::Bench, gpu_config(DEFAULT_SEED), cfg)
    });

    let mut all_ig = Vec::new();
    let mut all_pruned = Vec::new();
    let mut common_ig = Vec::new();
    let mut common_bar = Vec::new();
    // Row `i` of the figure, counted across both panels, is index `i` of
    // every column.
    let mut rows = 0..all.len();

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
        for (w, i) in set.iter().zip(&mut rows) {
            let (Ok(native), Ok(ig)) = (&native[i], &iguard[i]) else {
                if prune {
                    println!("{:<15} {:>9} {:>9} {:>11}  DNF", w.name, "-", "-", "-");
                } else {
                    println!("{:<15} {:>9} {:>11}  DNF", w.name, "-", "-");
                }
                continue;
            };
            let ig = ig / native;
            let pr = pruned
                .get(i)
                .and_then(|p| p.as_ref().ok())
                .map(|p| p / native);
            let (bar, note) = match &barracuda[i] {
                Err(_) => (None, "DNF"),
                Ok(BarracudaRun::Unsupported(_)) => (None, "unsupported"),
                Ok(BarracudaRun::Ran { time, failure, .. }) => match failure {
                    Some(BarracudaFailure::DidNotTerminate) => (Some(time / native), "timeout"),
                    Some(BarracudaFailure::OutOfMemory { .. }) => (None, "oom"),
                    None => (Some(time / native), ""),
                },
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
