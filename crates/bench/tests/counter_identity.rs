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

mod common;

use common::{stencil_launches, LADDER_THREADS, ZOO_DETECT};
use gpu_sim::machine::Gpu;
use gpu_sim::timing::CostCategory;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use workloads::{Launch, Size};

/// (address shards, `table_capacity_words`).
const CONFIGS: [(usize, Option<usize>); 4] =
    [(1, None), (4, None), (1, Some(1024)), (4, Some(1024))];

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
    common::check_or_write_table(TABLE_PATH, &rows(), "counter");
}
