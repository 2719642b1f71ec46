//! Counter identity for the detector hot path.
//!
//! A hot-path edit may make the detector faster; it may not move a
//! counter. This test runs the traffic the benchmark's detector workloads
//! carry — the ten `zoo_detect` members at `Size::Bench` and the kernel
//! shape of the three `ladder_stencil` rungs — at seed 42 and compares
//! every `IguardStats` field, the metadata regions' `UvmStats` and the
//! raw Detection cycle pools with a table recorded at the commit before
//! the packed-word engine (PR 14's parent), for one and four address
//! shards, each with and without a `table_capacity_words` cap (the
//! aliasing mode `bench --bin pressure` uses).
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test -p bench --release --test counter_identity
//! ```
//!
//! regenerates the table; do that only for a change whose point is to
//! move a counter.

use gpu_sim::asm::KernelBuilder;
use gpu_sim::ir::Special;
use gpu_sim::kernel::Kernel;
use gpu_sim::machine::Gpu;
use gpu_sim::timing::CostCategory;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use workloads::{Launch, Size};

/// `benchmark/src/spec.rs`'s `ZOO_DETECT`.
const ZOO_DETECT: [&str; 10] = [
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

/// `benchmark/src/spec.rs`'s `LADDER_THREADS` / `LADDER_BLOCK`.
const LADDER_THREADS: [u32; 3] = [1 << 10, 1 << 14, 1 << 17];
const LADDER_BLOCK: u32 = 128;

/// (address shards, `table_capacity_words`).
const CONFIGS: [(usize, Option<usize>); 4] =
    [(1, None), (4, None), (1, Some(1024)), (4, Some(1024))];

/// One pass of `benchmark/src/members.rs`'s stencil:
/// `dst[g + 1] = (src[g] + src[g + 1] + src[g + 2]) * 2 / 7`.
fn stencil_pass(name: &str) -> Kernel {
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

fn stencil_launches(gpu: &mut Gpu, threads: u32) -> Vec<Launch> {
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

/// Runs one member under one detector shape and renders every counter.
fn row(
    name: &str,
    build: &dyn Fn(&mut Gpu) -> Vec<Launch>,
    shards: usize,
    cap: Option<usize>,
) -> String {
    let mut gpu = Gpu::new(bench::gpu_config(bench::DEFAULT_SEED));
    let launches = build(&mut gpu);
    let cfg = IguardConfig {
        table_capacity_words: cap,
        ..IguardConfig::default()
    };
    let mut tool = Instrumented::new(Iguard::with_shards(cfg, shards));
    for l in &launches {
        // A watchdog timeout still leaves every counter deterministic.
        let _ = gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool);
    }
    let det = tool.tool_mut();
    let sites = det.race_sites().len();
    format!(
        "{name} shards={shards} cap={cap:?} | sites={sites} | {:?} | {:?} | detection={:?}",
        det.stats(),
        det.uvm_stats(),
        gpu.clock().raw(CostCategory::Detection),
    )
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for (shards, cap) in CONFIGS {
        for name in ZOO_DETECT {
            let w = workloads::by_name(name).expect("workload exists");
            out.push(row(name, &|gpu| w.build(gpu, Size::Bench), shards, cap));
        }
        for threads in LADDER_THREADS {
            let name = format!("stencil-{}Ki", threads >> 10);
            let build = |gpu: &mut Gpu| stencil_launches(gpu, threads);
            out.push(row(&name, &build, shards, cap));
        }
    }
    out
}

const TABLE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/counter_identity.txt"
);

#[test]
fn hot_path_counters_match_the_recorded_table() {
    let rows = rows();
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(TABLE_PATH, rows.join("\n") + "\n").expect("write counter table");
        eprintln!("counter table regenerated at {TABLE_PATH}");
        return;
    }
    let table = std::fs::read_to_string(TABLE_PATH)
        .expect("counter table missing; regenerate with GOLDEN_WRITE=1");
    let want: Vec<&str> = table.lines().collect();
    assert_eq!(want.len(), rows.len(), "counter table shape changed");
    for (got, want) in rows.iter().zip(want) {
        assert_eq!(
            got, want,
            "a detector counter moved\n  got: {got}\n want: {want}"
        );
    }
}
