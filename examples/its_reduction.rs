//! The paper's Figure 2/8 scenario: a warp-level reduction tail that
//! relied on pre-Volta lockstep execution. Under Independent Thread
//! Scheduling the missing `__syncwarp()` is a race — this example shows
//! (a) the wrong *values* the race can produce under ITS schedules,
//! (b) lockstep mode masking the bug, and (c) iGUARD catching it on every
//! schedule, fixed or not manifested.
//!
//! ```text
//! cargo run --release --example its_reduction [-- --seed S]
//! ```
//!
//! `--seed S` shifts the 24-schedule ITS sweep to seeds `S..S+24`
//! (default 0), for poking at other regions of the schedule space.

use iguard_repro::gpu_sim::prelude::*;
use iguard_repro::iguard::{Iguard, RaceKind};
use iguard_repro::nvbit_sim::Instrumented;

/// The reduction tail: lane 1 folds sdata[3] into sdata[1]; lane 0 then
/// folds sdata[1] into sdata[0]. Correct only if the two steps are ordered.
fn reduction_tail(with_syncwarp: bool) -> Kernel {
    let mut b = KernelBuilder::new(if with_syncwarp {
        "tail_fixed"
    } else {
        "tail_racy"
    });
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    // if (tid < 2) sdata[tid] += sdata[tid + 2];
    let lt2 = b.lt(tid, 2u32);
    let after1 = b.fwd_label();
    b.bra_ifnot(lt2, after1);
    let off = b.mul(tid, 4u32);
    let mya = b.add(base, off);
    let mine = b.ld(mya, 0);
    let other = b.ld(mya, 2);
    let s = b.add(mine, other);
    b.loc("sdata[tid] = mySum + sdata[tid + 2]   // Figure 8 line 5");
    b.st(mya, 0, s);
    b.bind(after1);
    if with_syncwarp {
        b.loc("__syncwarp()   // Figure 8 line 6 (the fix)");
        b.syncwarp();
    }
    // if (tid == 0) sdata[0] += sdata[1];
    let is0 = b.eq(tid, 0u32);
    let after2 = b.fwd_label();
    b.bra_ifnot(is0, after2);
    let v0 = b.ld(base, 0);
    let v1 = b.ld(base, 1);
    let s = b.add(v0, v1);
    b.loc("sdata[tid] = mySum + sdata[tid + 1]   // Figure 8 line 8");
    b.st(base, 0, s);
    b.bind(after2);
    b.build()
}

fn run_once(kernel: &Kernel, mode: ExecMode, seed: u64) -> (u32, usize) {
    // Crank up ITS schedule fuzzing so the reordering actually manifests
    // within a few dozen seeds (detection does not depend on this).
    let cfg = GpuConfig {
        mode,
        seed,
        its_split_prob: 0.3,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    let buf = gpu.alloc(4).expect("alloc");
    gpu.write_slice(buf, &[1, 2, 3, 4]); // correct total: 10
    let mut tool = Instrumented::new(Iguard::default());
    gpu.launch(kernel, 1, 32, &[buf], &mut tool)
        .expect("launch");
    let its_races = tool
        .tool_mut()
        .races()
        .iter()
        .filter(|r| r.kind == RaceKind::IntraWarp)
        .count();
    (gpu.read(buf, 0), its_races)
}

/// Parses `--seed S` from the process arguments (default `default`).
fn seed_arg(default: u64) -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().unwrap_or_else(|| {
                eprintln!("--seed requires a value");
                std::process::exit(2);
            });
            return v.parse().unwrap_or_else(|_| {
                eprintln!("--seed expects a number, got `{v}`");
                std::process::exit(2);
            });
        }
    }
    default
}

fn main() {
    let base = seed_arg(0);
    let racy = reduction_tail(false);
    let fixed = reduction_tail(true);

    println!(
        "input [1,2,3,4]; correct reduction = 10 (seeds {base}..{})\n",
        base + 24
    );

    println!("pre-Volta lockstep (the bug hides):");
    let (sum, _) = run_once(&racy, ExecMode::Lockstep, base.wrapping_add(1));
    println!("  racy kernel  -> sum = {sum}");

    println!("\nVolta+ ITS across schedules:");
    let mut wrong = 0;
    for seed in base..base + 24 {
        let (sum, races) = run_once(&racy, ExecMode::Its, seed);
        if sum != 10 {
            wrong += 1;
        }
        assert!(
            races > 0,
            "iGUARD must flag the race on every schedule (seed {seed})"
        );
    }
    println!("  racy kernel  -> wrong result on {wrong}/24 schedules; iGUARD flags ALL 24");

    let mut all_right = true;
    for seed in base..base + 24 {
        let (sum, races) = run_once(&fixed, ExecMode::Its, seed);
        all_right &= sum == 10;
        assert_eq!(races, 0, "fixed kernel must be clean (seed {seed})");
    }
    println!("  fixed kernel -> correct on all schedules ({all_right}); iGUARD reports nothing");
    println!("\nthe detector is order-insensitive: it catches the race even on");
    println!("schedules where the values happen to come out right.");
}
