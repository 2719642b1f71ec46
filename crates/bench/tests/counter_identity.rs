//! Counter identity for the detector hot path.
//!
//! A hot-path edit may make the detector faster; it may not move a
//! counter. This test runs the traffic the benchmark's detector workloads
//! carry — the ten `zoo_detect` members at `Size::Bench` and the kernel
//! shape of the three `ladder_stencil` rungs — at seed 42 and compares
//! every `IguardStats` field, the metadata regions' `UvmStats` and the
//! raw Detection cycle pools with a table recorded at the commit before
//! the packed-word engine (PR 14's parent), with and without a
//! `table_capacity_words` cap (the aliasing mode `bench --bin pressure`
//! uses; the rows keep the `shards=1` label they were recorded under) —
//! and, recorded at the commit before the row-at-a-time engine (PR 16's
//! parent), for the three other shapes that engine hands back to the
//! per-lane path: a history ring, a scaled metadata address space and an
//! armed fault plane. "Falls back" has to mean "same counters".
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test -p bench --release --test counter_identity
//! ```
//!
//! regenerates the table; do that only for a change whose point is to
//! move a counter.

mod common;

use common::{meta_uvm_plane, stencil_launches, LADDER_THREADS, ZOO_DETECT};
use gpu_sim::machine::Gpu;
use gpu_sim::timing::CostCategory;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use workloads::{Launch, Size};

/// `table_capacity_words`.
const CAPS: [Option<usize>; 2] = [None, Some(1024)];

/// The detector shapes, as (row label, configuration).
fn shapes() -> Vec<(String, IguardConfig)> {
    let mut shapes: Vec<(String, IguardConfig)> = CAPS
        .iter()
        .map(|&cap| {
            let cfg = IguardConfig {
                table_capacity_words: cap,
                ..IguardConfig::default()
            };
            (format!("shards=1 cap={cap:?}"), cfg)
        })
        .collect();
    let fallbacks = [
        ("history=4", IguardConfig::with_history(4)),
        (
            "addr_scale=4",
            IguardConfig {
                addr_scale: 4,
                ..IguardConfig::default()
            },
        ),
        (
            "faults=meta+uvm@7",
            IguardConfig {
                faults: meta_uvm_plane(),
                ..IguardConfig::default()
            },
        ),
    ];
    shapes.extend(fallbacks.map(|(label, cfg)| (label.to_owned(), cfg)));
    shapes
}

/// Runs one member under one detector shape and renders every counter.
fn row(
    name: &str,
    build: &dyn Fn(&mut Gpu) -> Vec<Launch>,
    (label, cfg): &(String, IguardConfig),
) -> String {
    let mut gpu = Gpu::new(bench::gpu_config(bench::DEFAULT_SEED));
    let launches = build(&mut gpu);
    let mut tool = Instrumented::new(Iguard::new(cfg.clone()));
    for l in &launches {
        // A watchdog timeout still leaves every counter deterministic.
        let _ = gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool);
    }
    let det = tool.tool_mut();
    let sites = det.race_sites().len();
    format!(
        "{name} {label} | sites={sites} | {:?} | {:?} | detection={:?}",
        det.stats(),
        det.uvm_stats(),
        gpu.clock().raw(CostCategory::Detection),
    )
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for shape in shapes() {
        for name in ZOO_DETECT {
            let w = workloads::by_name(name).expect("workload exists");
            out.push(row(name, &|gpu| w.build(gpu, Size::Bench), &shape));
        }
        for threads in LADDER_THREADS {
            let name = format!("stencil-{}Ki", threads >> 10);
            let build = |gpu: &mut Gpu| stencil_launches(gpu, threads);
            out.push(row(&name, &build, &shape));
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
