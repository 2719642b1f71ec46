//! The benchmark's detector traffic, rebuilt for the identity tests:
//! `benchmark/` is a package of its own that `crates/bench` cannot depend
//! on, so its member list and stencil kernel are restated here once.
#![allow(dead_code)] // each test file uses its own subset

use faults::{FaultConfig, FaultSite, RATE_ONE};
use gpu_sim::asm::KernelBuilder;
use gpu_sim::ir::Special;
use gpu_sim::kernel::Kernel;
use gpu_sim::machine::Gpu;
use workloads::Launch;

/// The armed metadata plane of `counter_identity`'s `faults=meta+uvm@7`
/// rows: entry evictions, tag aliases and UVM eviction storms.
pub fn meta_uvm_plane() -> FaultConfig {
    FaultConfig::disabled()
        .with_seed(7)
        .with_rate(FaultSite::MetaEviction, RATE_ONE / 64)
        .with_rate(FaultSite::MetaTagAlias, RATE_ONE / 64)
        .with_rate(FaultSite::UvmEvictStorm, RATE_ONE / 256)
}

/// `benchmark/src/spec.rs`'s `ZOO_DETECT`.
pub const ZOO_DETECT: [&str; 10] = [
    "interac",
    "matrix-mult",
    "b_scan",
    "d_scan",
    "needle",
    "hotspot",
    "pathfinder",
    "srad",
    "kmeans",
    "dwt2d",
];

/// `benchmark/src/spec.rs`'s `ZOO_SIM`.
pub const ZOO_SIM: [&str; 14] = [
    "1dconv",
    "graph-con",
    "rule-110",
    "uts",
    "graph-color",
    "louvain",
    "pr_nibble",
    "sm",
    "color",
    "mis",
    "cc",
    "slabhash_test",
    "hashtable",
    "shocbfs",
];

/// `benchmark/src/spec.rs`'s service `ROTATION` (run at `Size::Test`).
pub const ROTATION: [&str; 6] = [
    "reduction",
    "b_reduce",
    "graph-color",
    "d_scan",
    "hashtable",
    "matrix-mult",
];

/// `benchmark/src/spec.rs`'s `LADDER_THREADS` / `LADDER_BLOCK`.
pub const LADDER_THREADS: [u32; 3] = [1 << 10, 1 << 14, 1 << 17];
pub const LADDER_BLOCK: u32 = 128;

/// One pass of `benchmark/src/members.rs`'s stencil:
/// `dst[g + 1] = (src[g] + src[g + 1] + src[g + 2]) * 2 / 7`.
pub fn stencil_pass(name: &str) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let src = b.param(0);
    let dst = b.param(1);
    let g = b.special(Special::GlobalTid);
    let off = b.mul(g, 4u32);
    let sa = b.add(src, off);
    let v0 = b.ld(sa, 0);
    let v1 = b.ld(sa, 1);
    let v2 = b.ld(sa, 2);
    let s01 = b.add(v0, v1);
    let s = b.add(s01, v2);
    let scaled = b.mul(s, 2u32);
    let result = b.div(scaled, 7u32);
    let da = b.add(dst, off);
    b.st(da, 1, result);
    b.build()
}

/// The two double-buffered launches of one `ladder_stencil` rung.
pub fn stencil_launches(gpu: &mut Gpu, threads: u32) -> Vec<Launch> {
    let n = threads as usize + 2;
    let a = gpu.alloc(n).expect("stencil buffer a fits");
    let b = gpu.alloc(n).expect("stencil buffer b fits");
    for i in 0..n {
        gpu.write(a, i, (i % 17) as u32 + 1);
    }
    let launch = |name: &str, params: Vec<u32>| Launch {
        kernel: stencil_pass(name),
        grid: threads / LADDER_BLOCK,
        block: LADDER_BLOCK,
        params,
    };
    vec![
        launch("stencil_pass1", vec![a, b]),
        launch("stencil_pass2", vec![b, a]),
    ]
}

/// Compares `rows` with the table at `path`, or rewrites the table when
/// `GOLDEN_WRITE` is set.
pub fn check_or_write_table(path: &str, rows: &[String], what: &str) {
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(path, rows.join("\n") + "\n").expect("write golden table");
        eprintln!("{what} table regenerated at {path}");
        return;
    }
    let table = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{what} table missing ({e}); regenerate with GOLDEN_WRITE=1"));
    let want: Vec<&str> = table.lines().collect();
    assert_eq!(want.len(), rows.len(), "{what} table shape changed");
    for (got, want) in rows.iter().zip(want) {
        assert_eq!(
            got, want,
            "a {what} table row moved\n  got: {got}\n want: {want}"
        );
    }
}
