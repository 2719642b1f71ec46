//! Schedule identity for the interpreter.
//!
//! An interpreter edit may make `gpu_sim::machine` faster; it may not
//! move a scheduling decision. Every seeded schedule, golden transcript
//! and oracle trace rests on the machine asking its `Scheduler` the same
//! questions in the same order and delivering the same warp splits to
//! the hook, so this test pins what a hook can see: an FNV-1a digest
//! over every `on_mem_access` (step, warp, pc, active mask, each lane's
//! lane / tid / address) and every `on_sync` event, with the launch
//! counters and the simulated clock, for
//!
//! - all 43 zoo workloads at `Size::Test` under ITS and lockstep at the
//!   paper's seed and seeds 1 and 2, and
//! - the benchmark's ten `zoo_detect` members at `Size::Bench` and its
//!   three stencil rungs, at seed 42,
//!
//! against a table recorded at the commit before the warp-major
//! interpreter state (PR 15's parent).
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test -p bench --release --test schedule_digest
//! ```
//!
//! regenerates the table; do that only for a change whose point is to
//! move the schedule.

mod common;

use common::{stencil_launches, LADDER_THREADS, ZOO_DETECT};
use gpu_sim::hook::{AccessKind, ExecMode, Hook, MemAccess, SyncEvent};
use gpu_sim::ir::{Scope, Space};
use gpu_sim::machine::{Gpu, GpuConfig, LaunchStats};
use gpu_sim::timing::Clock;
use workloads::{Launch, Size};

const SEEDS: [u64; 3] = [bench::DEFAULT_SEED, 1, 2];

/// FNV-1a over everything the machine shows a hook.
struct Digest {
    hash: u64,
    mem: u64,
    sync: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            mem: 0,
            sync: 0,
        }
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: &[u64]) {
        for &v in vs {
            self.word(v);
        }
    }
}

fn scope_code(scope: Scope) -> u64 {
    match scope {
        Scope::Block => 0,
        Scope::Device => 1,
    }
}

impl Hook for Digest {
    fn on_mem_access(&mut self, a: &MemAccess<'_>, _clock: &mut Clock) {
        self.mem += 1;
        let kind = match a.kind {
            AccessKind::Load => 1,
            AccessKind::Store => 2,
            AccessKind::Atomic { op, scope } => 0x100 + ((op as u64) << 4) + scope_code(scope),
        };
        self.words(&[
            0xA,
            a.step,
            u64::from(a.global_warp),
            u64::from(a.block_id),
            u64::from(a.warp_in_block),
            u64::from(a.sm),
            a.pc as u64,
            u64::from(a.active_mask),
            kind,
            u64::from(a.space == Space::Shared),
            u64::from(a.volatile),
            a.lanes.len() as u64,
        ]);
        for l in a.lanes {
            self.words(&[
                u64::from(l.lane),
                u64::from(l.tid_in_block),
                u64::from(l.addr),
            ]);
        }
    }

    fn on_sync(&mut self, e: &SyncEvent<'_>, _clock: &mut Clock) {
        self.sync += 1;
        match *e {
            SyncEvent::BlockBarrier { block_id } => self.words(&[0xB, u64::from(block_id)]),
            SyncEvent::WarpBarrier {
                block_id,
                warp_in_block,
                global_warp,
            } => self.words(&[
                0xC,
                u64::from(block_id),
                u64::from(warp_in_block),
                u64::from(global_warp),
            ]),
            SyncEvent::Fence {
                scope,
                block_id,
                global_warp,
                tids,
                active_mask,
                pc,
                step,
            } => {
                self.words(&[
                    0xD,
                    scope_code(scope),
                    u64::from(block_id),
                    u64::from(global_warp),
                    u64::from(active_mask),
                    pc as u64,
                    step,
                    tids.len() as u64,
                ]);
                for &(lane, tid) in tids {
                    self.words(&[u64::from(lane), u64::from(tid)]);
                }
            }
        }
    }
}

/// Runs one member's launches under the digest hook and renders the row.
fn row(label: &str, build: &dyn Fn(&mut Gpu) -> Vec<Launch>, cfg: GpuConfig) -> String {
    let mut gpu = Gpu::new(cfg);
    let launches = build(&mut gpu);
    let mut hook = Digest::new();
    let mut total = LaunchStats::default();
    let mut errors = Vec::new();
    for l in &launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut hook) {
            Ok(s) => {
                total.steps += s.steps;
                total.dyn_instrs += s.dyn_instrs;
                total.lane_instrs += s.lane_instrs;
            }
            Err(e) => errors.push(e.to_string()),
        }
    }
    format!(
        "{label} | digest={:016x} mem={} sync={} | steps={} dyn={} lanes={} | time={:?} | errors={errors:?}",
        hook.hash,
        hook.mem,
        hook.sync,
        total.steps,
        total.dyn_instrs,
        total.lane_instrs,
        gpu.clock().total_time(),
    )
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for w in workloads::all() {
        for mode in [ExecMode::Its, ExecMode::Lockstep] {
            for seed in SEEDS {
                let cfg = GpuConfig {
                    mode,
                    ..bench::gpu_config(seed)
                };
                let label = format!("{} test {mode:?} seed={seed}", w.name);
                out.push(row(&label, &|gpu| w.build(gpu, Size::Test), cfg));
            }
        }
    }
    let bench_cfg = || bench::gpu_config(bench::DEFAULT_SEED);
    for name in ZOO_DETECT {
        let w = workloads::by_name(name).expect("workload exists");
        let label = format!("{name} bench Its seed={}", bench::DEFAULT_SEED);
        out.push(row(&label, &|gpu| w.build(gpu, Size::Bench), bench_cfg()));
    }
    for threads in LADDER_THREADS {
        let label = format!(
            "stencil-{}Ki Its seed={}",
            threads >> 10,
            bench::DEFAULT_SEED
        );
        let build = |gpu: &mut Gpu| stencil_launches(gpu, threads);
        out.push(row(&label, &build, bench_cfg()));
    }
    out
}

const TABLE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/schedule_digest.txt"
);

#[test]
fn schedules_match_the_recorded_table() {
    common::check_or_write_table(TABLE_PATH, &rows(), "schedule digest");
}
