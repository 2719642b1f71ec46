//! Regenerates **Figure 12**: iGUARD's overhead with and without the §6.5
//! contention optimizations (coalesced metadata access + dynamically
//! adjusted exponential backoff), on the eight workloads that suffer heavy
//! metadata-lock contention. The paper reports a mean 7× improvement, with
//! conjugGMB dropping from 706× to 6×.
//!
//! Pass `--ablate` to additionally measure each optimization alone.
//!
//! ```text
//! cargo run -p bench --release --bin fig12 [-- --ablate]
//! ```

use bench::{geomean, gpu_config, par_map, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

fn main() {
    let [ablate] = bench::switches(["--ablate"]);

    // The iGUARD configuration of each column, baseline first.
    let configs: Vec<IguardConfig> = if ablate {
        vec![
            IguardConfig::without_contention_opts(),
            IguardConfig {
                coalescing: true,
                backoff: false,
                ..IguardConfig::default()
            },
            IguardConfig {
                coalescing: false,
                backoff: true,
                ..IguardConfig::default()
            },
            IguardConfig::default(),
        ]
    } else {
        vec![
            IguardConfig::without_contention_opts(),
            IguardConfig::default(),
        ]
    };

    let set: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.contention_heavy)
        .collect();
    let native = par_map(set.clone(), |w| {
        bench::run_native(&w, Size::Bench, gpu_config(DEFAULT_SEED)).time
    });
    let iguard: Vec<_> = configs
        .iter()
        .map(|cfg| {
            par_map(set.clone(), |w| {
                let gcfg = gpu_config(DEFAULT_SEED);
                bench::run_iguard(&w, Size::Bench, gcfg, cfg.clone())
                    .driven
                    .time
            })
        })
        .collect();

    println!("Figure 12: overhead with and without the contention optimizations");
    if ablate {
        println!(
            "{:<15} {:>10} {:>12} {:>12} {:>10} {:>8}",
            "workload", "baseline", "+coalesce", "+backoff", "+both", "gain"
        );
    } else {
        println!(
            "{:<15} {:>10} {:>10} {:>8}",
            "workload", "baseline", "optimized", "gain"
        );
    }
    println!("{}", "-".repeat(72));

    let mut gains = Vec::new();
    for (i, w) in set.iter().enumerate() {
        // iGUARD time over native time per column; `None` on a DNF.
        let cols: Vec<Option<f64>> = iguard
            .iter()
            .map(|col| Some(col[i].as_ref().ok()? / native[i].as_ref().ok()?))
            .collect();
        let (base, both) = (cols[0], cols[cols.len() - 1]);
        let cell = |v: Option<f64>, w: usize| match v {
            Some(x) => format!("{x:>w$.1}x", w = w),
            None => format!("{:>w$}", "DNF", w = w + 1),
        };
        let gain = base.zip(both).map(|(b, o)| b / o);
        if let Some(g) = gain {
            gains.push(g);
        }
        if ablate {
            println!(
                "{:<15} {} {} {} {} {}",
                w.name,
                cell(cols[0], 9),
                cell(cols[1], 11),
                cell(cols[2], 11),
                cell(cols[3], 9),
                cell(gain, 7),
            );
        } else {
            println!(
                "{:<15} {} {} {}",
                w.name,
                cell(cols[0], 9),
                cell(cols[1], 9),
                cell(gain, 7),
            );
        }
    }
    println!("{}", "-".repeat(72));
    println!(
        "mean improvement: {:.1}x   (paper: 7x on average; conjugGMB 706x -> 6x)",
        geomean(&gains)
    );
}
