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

use bench::{geomean, par_map, JobSpec, RunOutput, ToolSpec, DEFAULT_SEED};
use iguard::IguardConfig;
use workloads::Size;

/// iGUARD time / native time from two adjacent results; `None` on DNF.
fn over(native: &Result<RunOutput, String>, ig: &Result<RunOutput, String>) -> Option<f64> {
    let n = native.as_ref().ok()?.native()?;
    let i = ig.as_ref().ok()?.iguard()?;
    Some(i.driven.time / n.time)
}

fn main() {
    let [ablate] = bench::switches(["--ablate"]);

    // Per workload: native, then one iGUARD run per configuration column.
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
        vec![IguardConfig::without_contention_opts(), IguardConfig::default()]
    };
    let stride = configs.len() + 1;

    let set: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.contention_heavy)
        .collect();
    let mut specs = Vec::new();
    for w in &set {
        specs.push(JobSpec::new(
            *w,
            ToolSpec::Native,
            Size::Bench,
            DEFAULT_SEED,
        ));
        for cfg in &configs {
            specs.push(JobSpec::new(
                *w,
                ToolSpec::Iguard(cfg.clone()),
                Size::Bench,
                DEFAULT_SEED,
            ));
        }
    }
    let outcomes = par_map(specs, JobSpec::run);

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
        let chunk = &outcomes[i * stride..(i + 1) * stride];
        let native = &chunk[0];
        let cols: Vec<Option<f64>> =
            (1..stride).map(|j| over(native, &chunk[j])).collect();
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
