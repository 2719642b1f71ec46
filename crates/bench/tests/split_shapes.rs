//! The address shapes of the benchmark's warp splits, counted.
//!
//! The detector's row path (DESIGN.md §8, "Row-at-a-time engine") takes a
//! split whose active lanes hit `word(l) = base + l`; everything else
//! goes lane by lane. Which traffic that is must be read off the
//! programs, not guessed: a counting hook records, per member, the
//! global-memory splits and lanes of each shape —
//!
//! - `single`: one active lane;
//! - `uniform`: several lanes, one address (what coalescing folds);
//! - `row`: `word − lane` constant over a contiguous lane mask;
//! - `gapped`: `word − lane` constant over a mask with holes;
//! - `other`: strided, scattered or repeated words —
//!
//! and `folded`, the lanes coalescing saves beyond the uniform splits: in
//! a load or atomic split on several words, every lane but the lowest on
//! each word (matrix-mult and kmeans among these members; interac's is 0,
//! its folds are all the one-address kind) —
//!
//! for the benchmark's `zoo_detect`, `zoo_sim` and stencil members at
//! `Size::Bench` and the service rotation at `Size::Test`, seed 42. The
//! table shows where the row path reaches (interac, the stencil, the
//! scans) and where it does not (matrix-mult, kmeans, dwt2d, hashtable,
//! slabhash_test).
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test -p bench --release --test split_shapes
//! ```
//!
//! regenerates the table; it moves only with the workloads or the
//! interpreter's schedule.

mod common;

use common::{stencil_launches, LADDER_THREADS, ROTATION, ZOO_DETECT, ZOO_SIM};
use gpu_sim::hook::{AccessKind, Hook, MemAccess};
use gpu_sim::ir::Space;
use gpu_sim::machine::Gpu;
use gpu_sim::timing::Clock;
use workloads::{Launch, Size};

const SHAPES: [&str; 5] = ["single", "uniform", "row", "gapped", "other"];

/// (splits, lanes) per shape, in `SHAPES` order, then the lanes folded in
/// splits on more than one word.
#[derive(Default)]
struct Census([(u64, u64); 5], u64);

impl Hook for Census {
    fn on_mem_access(&mut self, a: &MemAccess<'_>, _clock: &mut Clock) {
        if a.space != Space::Global {
            return;
        }
        let first = a.lanes[0];
        let constant_offset = a.lanes.iter().all(|l| {
            (l.addr / 4).wrapping_sub(l.lane) == (first.addr / 4).wrapping_sub(first.lane)
        });
        let contiguous = a
            .lanes
            .iter()
            .zip(first.lane..)
            .all(|(l, lane)| l.lane == lane);
        let shape = if a.lanes.len() == 1 {
            0
        } else if a.lanes.iter().all(|l| l.addr == first.addr) {
            1
        } else if constant_offset && contiguous {
            2
        } else if constant_offset {
            3
        } else {
            4
        };
        self.0[shape].0 += 1;
        self.0[shape].1 += a.lanes.len() as u64;
        if shape > 1 && (a.kind != AccessKind::Store || a.volatile) {
            let mut words: Vec<u32> = a.lanes.iter().map(|l| l.addr / 4).collect();
            words.sort_unstable();
            words.dedup();
            self.1 += (a.lanes.len() - words.len()) as u64;
        }
    }
}

fn row(label: &str, build: &dyn Fn(&mut Gpu) -> Vec<Launch>) -> String {
    let mut gpu = Gpu::new(bench::gpu_config(bench::DEFAULT_SEED));
    let launches = build(&mut gpu);
    let mut census = Census::default();
    for l in &launches {
        // A watchdog timeout still leaves the census deterministic.
        let _ = gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut census);
    }
    let lanes: u64 = census.0.iter().map(|&(_, lanes)| lanes).sum();
    // Shares are of the lanes outside uniform splits: a uniform split is
    // the coalescing optimization's, whatever the engine does.
    let per_lane = lanes - census.0[1].1;
    let cells: Vec<String> = SHAPES
        .iter()
        .zip(census.0)
        .map(|(shape, (splits, n))| format!("{shape}={splits}/{n}"))
        .collect();
    let share = |i: usize| 100.0 * census.0[i].1 as f64 / per_lane.max(1) as f64;
    format!(
        "{label} | {} | lanes={lanes} non-uniform={per_lane} row%={:.1} row+gapped%={:.1} folded={}",
        cells.join(" "),
        share(2),
        share(2) + share(3),
        census.1,
    )
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    let zoo = |names: &[&str], size: Size, tag: &str, out: &mut Vec<String>| {
        for name in names {
            let w = workloads::by_name(name).expect("workload exists");
            out.push(row(&format!("{name} {tag}"), &|gpu| w.build(gpu, size)));
        }
    };
    zoo(&ZOO_DETECT, Size::Bench, "bench", &mut out);
    zoo(&ZOO_SIM, Size::Bench, "bench", &mut out);
    for threads in LADDER_THREADS {
        let label = format!("stencil-{}Ki", threads >> 10);
        out.push(row(&label, &|gpu| stencil_launches(gpu, threads)));
    }
    zoo(&ROTATION, Size::Test, "test", &mut out);
    out
}

const TABLE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/split_shapes.txt");

#[test]
fn split_shapes_match_the_recorded_table() {
    common::check_or_write_table(TABLE_PATH, &rows(), "split-shape");
}
