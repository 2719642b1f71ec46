//! The tool zoo: one racy kernel, four detectors — iGUARD, the ScoRD-like
//! scoped-only detector, CURD, and Barracuda — plus the scratchpad
//! extension on a shared-memory bug none of them watch. A live rendition
//! of the paper's Table 1.
//!
//! ```text
//! cargo run --release --example tool_zoo [-- --seed S]
//! ```
//!
//! `--seed S` picks the ITS schedule seed all detectors run under
//! (default: the simulator's default seed). Detection is
//! schedule-insensitive for these bugs, so the verdicts do not move.

use iguard_repro::barracuda::{Barracuda, BinaryKind, Curd};
use iguard_repro::gpu_sim::prelude::*;
use iguard_repro::iguard::{Iguard, IguardConfig, ScratchpadGuard};
use iguard_repro::nvbit_sim::Instrumented;

/// A kernel with one bug per race class: a block-scope atomic shared
/// across blocks (AS), a divergent same-warp handoff (ITS), an unbarriered
/// cross-warp store pair (BR) — and a scratchpad handoff missing its
/// barrier, which global-memory detectors rightfully ignore.
fn menagerie() -> Kernel {
    let mut b = KernelBuilder::new("menagerie");
    b.shared(8);
    let tid = b.special(Special::Tid);
    let bid = b.special(Special::BlockId);
    let base = b.param(0);
    // Per-block words keep the ITS and BR bugs intra-block:
    // its_addr = &base[4 + bid], br_addr = &base[12 + bid].
    let its_idx = b.add(bid, 4u32);
    let its_off = b.mul(its_idx, 4u32);
    let its_addr = b.add(base, its_off);
    let br_idx = b.add(bid, 12u32);
    let br_off = b.mul(br_idx, 4u32);
    let br_addr = b.add(base, br_off);

    // AS: every block's leader, block-scope atomic on a shared counter.
    let is0 = b.eq(tid, 0u32);
    let n1 = b.fwd_label();
    b.bra_ifnot(is0, n1);
    let one = b.imm(1);
    b.loc("AS: atomicAdd_block(counter)");
    let _ = b.atom(AtomOp::Add, Scope::Block, base, 0, one);
    b.bind(n1);

    // ITS: lane 1 stores, lane 0 loads, no __syncwarp.
    let is1 = b.eq(tid, 1u32);
    let n2 = b.fwd_label();
    b.bra_ifnot(is1, n2);
    let v = b.imm(7);
    b.loc("ITS: producer store");
    b.st(its_addr, 0, v);
    b.bind(n2);
    let is0b = b.eq(tid, 0u32);
    let n3 = b.fwd_label();
    b.bra_ifnot(is0b, n3);
    b.loc("ITS: consumer load");
    let _ = b.ld(its_addr, 0);
    b.bind(n3);

    // BR: threads 0 and 40 (different warps) store one word, no barrier.
    let is40 = b.eq(tid, 40u32);
    let hit = b.or(is0b, is40);
    let n4 = b.fwd_label();
    b.bra_ifnot(hit, n4);
    b.loc("BR: unbarriered cross-warp store");
    b.st(br_addr, 0, tid);
    b.bind(n4);

    // Scratchpad: warp-1 thread writes sdata[1], warp-0 thread reads it.
    let is33 = b.eq(tid, 33u32);
    let n5 = b.fwd_label();
    b.bra_ifnot(is33, n5);
    let v = b.imm(5);
    let four = b.imm(4);
    b.loc("scratchpad: unbarriered shared store");
    b.st_shared(four, 0, v);
    b.bind(n5);
    let is2 = b.eq(tid, 2u32);
    let n6 = b.fwd_label();
    b.bra_ifnot(is2, n6);
    let four = b.imm(4);
    b.loc("scratchpad: unbarriered shared load");
    let _ = b.ld_shared(four, 0);
    b.bind(n6);
    b.build()
}

/// Parses `--seed S` from the process arguments.
fn gpu_config() -> GpuConfig {
    let mut cfg = GpuConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().unwrap_or_else(|| {
                eprintln!("--seed requires a value");
                std::process::exit(2);
            });
            cfg.seed = v.parse().unwrap_or_else(|_| {
                eprintln!("--seed expects a number, got `{v}`");
                std::process::exit(2);
            });
        }
    }
    cfg
}

fn main() {
    let k = menagerie();
    let run = |label: &str, races: usize, note: &str| {
        println!("{label:<24} {races:>2} race(s)   {note}");
    };

    println!("one kernel, every detector (grid 4x64, seed {}):\n", gpu_config().seed);

    // iGUARD.
    let mut gpu = Gpu::new(gpu_config());
    let buf = gpu.alloc(32).unwrap();
    let mut ig = Instrumented::new(Iguard::default());
    gpu.launch(&k, 4, 64, &[buf], &mut ig).unwrap();
    let ig_races = ig.tool_mut().races();
    run("iGUARD", ig_races.len(), "AS + ITS + BR — the full set");
    for r in &ig_races {
        println!("    {r}");
    }

    // ScoRD-like (no ITS).
    let mut gpu = Gpu::new(gpu_config());
    let buf = gpu.alloc(32).unwrap();
    let mut sc = Instrumented::new(Iguard::new(IguardConfig::scord_like()));
    gpu.launch(&k, 4, 64, &[buf], &mut sc).unwrap();
    run(
        "\nScoRD-like (no ITS)",
        sc.tool().unique_races(),
        "misses the intra-warp handoff",
    );

    // CURD / Barracuda: refuse the binary (scoped atomics).
    let refusal = iguard_repro::barracuda::supports(&[&k], BinaryKind::SingleFile).unwrap_err();
    println!(
        "\n{:<24} —          refuses the binary: {refusal}",
        "Barracuda"
    );
    let curd_refusal = Curd::for_kernels(&[&k], BinaryKind::SingleFile)
        .err()
        .unwrap();
    println!(
        "{:<24} —          refuses the binary: {curd_refusal}",
        "CURD"
    );
    let _ = Barracuda::default();

    // The scratchpad extension sees the one bug iGUARD scopes out.
    let mut gpu = Gpu::new(gpu_config());
    let buf = gpu.alloc(32).unwrap();
    let mut sp = Instrumented::new(ScratchpadGuard::new());
    gpu.launch(&k, 4, 64, &[buf], &mut sp).unwrap();
    println!(
        "\n{:<24} {:>2} race(s)   the shared-memory bug",
        "ScratchpadGuard (ext.)",
        sp.tool().races().len()
    );
    for r in sp.tool().races() {
        println!(
            "    [{}] {} race on sdata+0x{:x} (block {}){}",
            r.kernel,
            r.kind.code(),
            r.offset,
            r.block,
            r.line
                .as_deref()
                .map(|l| format!("  // {l}"))
                .unwrap_or_default()
        );
    }

    assert!(ig_races.len() >= 3);
    assert!(sc.tool().unique_races() < ig_races.len());
    assert_eq!(sp.tool().races().len(), 1);
}
