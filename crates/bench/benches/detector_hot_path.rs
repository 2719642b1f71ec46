//! Criterion microbenchmarks of the detector's hot path and the simulator
//! substrate: what the *reproduction itself* costs to run, as opposed to
//! the simulated-cycle figures the `fig*`/`table*` binaries report.
//!
//! ```text
//! cargo bench -p bench
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use gpu_sim::hook::{AccessKind, LaneAccess, LaunchInfo, MemAccess};
use gpu_sim::prelude::*;
use gpu_sim::timing::Clock;
use iguard::bitfield::{AccessorInfo, Flags, MetadataEntry, VALID};
use iguard::checks::{detailed, preliminary, AccessType, CurrAccess, MdView};
use iguard::locks::LockTable;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::{Instrumented, Tool};

/// A small device configuration so wall-clock measurements reflect the
/// simulation and detection work, not zeroing the default 16 MiB backing
/// store every iteration.
fn small_device() -> GpuConfig {
    GpuConfig {
        mem_words: 1 << 14,
        ..GpuConfig::default()
    }
}

fn bench_checks(c: &mut Criterion) {
    let mut flags = Flags {
        valid: true,
        modified: true,
        ..Flags::default()
    };
    flags.blk_shared = true;
    let writer = AccessorInfo {
        warp_id: 0,
        lane: 3,
        ..AccessorInfo::default()
    };
    let entry = MetadataEntry {
        tag: 0,
        flags,
        accessor: writer,
        writer,
        locks: 0,
    };
    let md = MdView {
        info: writer,
        live_dev_fence: 0,
        live_blk_fence: 0,
    };
    let curr = CurrAccess {
        kind: AccessType::Store,
        warp_id: 1,
        lane: 3,
        block_id: 0,
        active_mask: 1 << 3,
        snap: AccessorInfo {
            warp_id: 1,
            lane: 3,
            ..AccessorInfo::default()
        },
        locks: 0,
    };
    c.bench_function("race_checks_p_and_r", |b| {
        b.iter(|| {
            let p = preliminary(black_box(&entry), black_box(&md), black_box(&curr), 4);
            let r = detailed(black_box(&entry), black_box(&md), black_box(&curr), 4);
            black_box((p, r))
        });
    });
}

fn bench_lock_table(c: &mut Criterion) {
    c.bench_function("lock_table_acquire_release", |b| {
        b.iter(|| {
            let mut t = LockTable::default();
            t.on_cas(black_box(0x1234), Scope::Device);
            t.on_fence(Scope::Device);
            let s = t.summary();
            t.on_exch(0x1234, Scope::Device);
            black_box(s)
        });
    });
}

/// A kernel with a dense mix of loads/stores/atomics for throughput tests.
fn stream_kernel() -> Kernel {
    let mut b = KernelBuilder::new("bench_stream");
    let base = b.param(0);
    let g = b.special(Special::GlobalTid);
    let off = b.mul(g, 4u32);
    let a = b.add(base, off);
    for _ in 0..8 {
        let v = b.ld(a, 0);
        let v2 = b.add(v, 1u32);
        b.st(a, 0, v2);
    }
    let one = b.imm(1);
    let _ = b.atomic_add(Scope::Device, base, 0, one);
    b.build()
}

fn bench_simulator_throughput(c: &mut Criterion) {
    let k = stream_kernel();
    c.bench_function("sim_native_4x64", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(small_device());
            let buf = gpu.alloc(512).unwrap();
            gpu.launch(black_box(&k), 4, 64, &[buf], &mut NullHook)
                .unwrap()
        });
    });
}

fn bench_detector_end_to_end(c: &mut Criterion) {
    let k = stream_kernel();
    c.bench_function("sim_iguard_4x64", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(small_device());
            let buf = gpu.alloc(512).unwrap();
            let mut tool = Instrumented::new(Iguard::new(IguardConfig::default()));
            gpu.launch(black_box(&k), 4, 64, &[buf], &mut tool).unwrap()
        });
    });
}

fn bench_barracuda_end_to_end(c: &mut Criterion) {
    let k = stream_kernel();
    c.bench_function("sim_barracuda_4x64", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(small_device());
            let buf = gpu.alloc(512).unwrap();
            let mut tool = Instrumented::new(barracuda::Barracuda::new(
                barracuda::BarracudaConfig::default(),
            ));
            gpu.launch(black_box(&k), 4, 64, &[buf], &mut tool).unwrap();
            let clock = gpu.clock_mut();
            black_box(tool.tool_mut().finish(clock).len())
        });
    });
}

/// Every thread of every warp hammers the same word: the worst case for
/// the flat contention table (one hot slot, every access contended).
fn hot_word_kernel(rounds: u32) -> Kernel {
    let mut b = KernelBuilder::new("bench_hot_word");
    let base = b.param(0);
    let tid = b.special(Special::Tid);
    let i = b.imm(0);
    let top = b.here();
    let done = b.ge(i, rounds);
    let exit_l = b.fwd_label();
    b.bra_if(done, exit_l);
    b.st(base, 0, tid);
    let _ = b.ld(base, 0);
    b.assign_add(i, i, 1u32);
    b.bra(top);
    b.bind(exit_l);
    b.build()
}

/// The flat slot/tag path in isolation: strided load/store round-trips
/// through `MetadataTable` (mask/shift slot indexing, epoch
/// invalidation), including indices past the table so tags alias.
fn bench_metadata_table_slots(c: &mut Criterion) {
    use iguard::metadata::{MetadataTable, TableConfig};
    let mut table = MetadataTable::new(TableConfig {
        virtual_bytes: 1 << 26,
        device_budget_bytes: 1 << 26,
        ..TableConfig::covering(1 << 12)
    });
    let entry = MetadataEntry {
        tag: 0,
        flags: Flags {
            valid: true,
            ..Flags::default()
        },
        accessor: AccessorInfo {
            warp_id: 9,
            lane: 4,
            ..AccessorInfo::default()
        },
        writer: AccessorInfo::default(),
        locks: 0,
    };
    let (acc_word, wr_word) = entry.pack();
    c.bench_function("metadata_table_strided_load_store", |b| {
        b.iter(|| {
            table.begin_epoch();
            let mut acc = 0u64;
            // Stride past the 2^12-entry table so half the loads alias
            // into occupied slots with a different tag.
            for i in (0..4096u32).map(|i| i * 3) {
                let m = table.load(black_box(i));
                acc += m.acc & VALID;
                table.store(i, acc_word, wr_word);
            }
            black_box(acc)
        });
    });
}

/// End-to-end detection with every warp contending on one word: the flat
/// contention table (slot-indexed arrival windows + backoff) is the hot
/// structure here.
fn bench_flat_contention_path(c: &mut Criterion) {
    let k = hot_word_kernel(16);
    c.bench_function("sim_iguard_hot_word_4x64", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(small_device());
            let buf = gpu.alloc(4).unwrap();
            let mut tool = Instrumented::new(Iguard::new(IguardConfig::default()));
            gpu.launch(black_box(&k), 4, 64, &[buf], &mut tool).unwrap()
        });
    });
}

/// Same racy kernel with an 8-deep accessor history (§6.7 ablation): the
/// flat history ring is written on every store and walked on every check
/// that the depth-1 path cannot decide.
fn bench_flat_history_path(c: &mut Criterion) {
    let k = hot_word_kernel(16);
    c.bench_function("sim_iguard_history8_hot_word_4x64", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(small_device());
            let buf = gpu.alloc(4).unwrap();
            let mut tool = Instrumented::new(Iguard::new(IguardConfig::with_history(8)));
            gpu.launch(black_box(&k), 4, 64, &[buf], &mut tool).unwrap()
        });
    });
}

/// Warps (of 32 lanes, 4 to a block) the warm split shapes below launch.
const SPLIT_WARPS: u32 = 512;
/// And the cold one: the top `ladder_stencil` rung's 128 Ki threads.
const COLD_WARPS: u32 = 4096;

/// A launched detector fed warp splits directly, without the interpreter:
/// the detector's own cost per lane, the quantity the benchmark reports as
/// `iguard.ns_per_access`.
struct SplitDriver {
    det: Iguard,
    clock: Clock,
    kernel: Kernel,
    info: LaunchInfo,
    step: u64,
}

impl SplitDriver {
    /// A detector launched over `warps` warps and two buffers of a word
    /// per thread.
    fn new(warps: u32) -> Self {
        let mut b = KernelBuilder::new("bench_split");
        let base = b.param(0);
        let v = b.ld(base, 0);
        b.st(base, 0, v);
        let kernel = b.build();
        let info = LaunchInfo {
            kernel_name: kernel.name.clone(),
            grid_dim: warps / 4,
            block_dim: 128,
            warps_per_block: 4,
            total_threads: warps * 32,
            total_warps: warps,
            free_device_bytes: 20 << 30,
            app_footprint_bytes: 1 << 20,
            device_capacity_bytes: 24 << 30,
            backing_words: (warps as usize * 64 + 64).next_power_of_two(),
        };
        let mut driver = SplitDriver {
            det: Iguard::new(IguardConfig::default()),
            clock: Clock::new(),
            kernel,
            info,
            step: 0,
        };
        driver.launch();
        driver
    }

    /// A new launch: every word is untouched again.
    fn launch(&mut self) {
        self.det.at_launch(&self.info, &mut self.clock);
    }

    /// One full-warp split by `warp` over 32 consecutive words, lane `i`
    /// on word `first_word + i`.
    fn split(&mut self, warp: u32, kind: AccessKind, first_word: u32) {
        self.split_shaped(warp, kind, first_word, 1, 1);
    }

    /// One split by every `lane_step`-th lane of `warp`, lane `i` on word
    /// `first_word + i * word_stride`.
    fn split_shaped(
        &mut self,
        warp: u32,
        kind: AccessKind,
        first_word: u32,
        lane_step: usize,
        word_stride: u32,
    ) {
        self.split_on(warp, kind, lane_step, |i| first_word + i * word_stride);
    }

    /// One split by every `lane_step`-th lane of `warp`, lane `i` on word
    /// `word(i)`.
    fn split_on(
        &mut self,
        warp: u32,
        kind: AccessKind,
        lane_step: usize,
        word: impl Fn(u32) -> u32,
    ) {
        let mut lanes = [LaneAccess {
            lane: 0,
            tid_in_block: 0,
            addr: 0,
        }; 32];
        let active = 32usize.div_ceil(lane_step);
        for (l, i) in lanes.iter_mut().zip((0..32u32).step_by(lane_step)) {
            l.lane = i;
            l.tid_in_block = (warp % 4) * 32 + i;
            l.addr = word(i) * 4;
        }
        let lanes = &lanes[..active];
        self.step += 1;
        let access = MemAccess {
            kernel: &self.kernel,
            pc: usize::from(kind != AccessKind::Load),
            kind,
            block_id: warp / 4,
            warp_in_block: warp % 4,
            global_warp: warp,
            active_mask: lanes.iter().fold(0, |m, l| m | 1 << l.lane),
            volatile: false,
            lanes,
            warps_per_block: 4,
            sm: 0,
            step: self.step,
        };
        self.det.on_mem(black_box(&access), &mut self.clock);
    }

    /// The stencil's launch: each warp reads three neighbouring rows of the
    /// source buffer and writes one row of the destination.
    fn stencil_launch(&mut self) {
        let warps = self.info.total_warps;
        let dst = warps * 32 + 32;
        self.launch();
        for warp in 0..warps {
            for offset in 0..3 {
                self.split(warp, AccessKind::Load, warp * 32 + offset);
            }
            self.split(warp, AccessKind::Store, dst + warp * 32);
        }
    }

    /// interac's round — every thread loads, then stores, its own cell —
    /// by the next warp in turn, in the given split shape.
    fn own_cell_round(&mut self, lane_step: usize, word_stride: u32) {
        let warp = self.step as u32 / 2 % SPLIT_WARPS;
        let first_word = warp * 32 * word_stride;
        self.split_shaped(warp, AccessKind::Load, first_word, lane_step, word_stride);
        self.split_shaped(warp, AccessKind::Store, first_word, lane_step, word_stride);
    }

    /// matrix-mult's inner step on a 16-wide tile, by the next warp in
    /// turn: its two rows load `A[row][k]` — two words, sixteen lanes on
    /// each — then its sixteen columns load `B[k][col]` — sixteen
    /// consecutive words, twice over.
    fn matmul_step(&mut self) {
        const N: u32 = 16;
        let i = self.step as u32 / 2;
        let (warp, k) = (i % SPLIT_WARPS, i / SPLIT_WARPS % N);
        let b = SPLIT_WARPS * 2 * N;
        self.split_on(warp, AccessKind::Load, 1, |l| (2 * warp + l / 16) * N + k);
        self.split_on(warp, AccessKind::Load, 1, |l| b + k * N + l % 16);
    }

    /// After rounds of own-cell traffic P3 decides nearly everything.
    fn assert_p3_dominates(&self) {
        let hits = self.det.stats().safe_hits;
        assert!(
            hits[2] > 9 * (hits[0] + hits[1]),
            "P3 must dominate: {hits:?}"
        );
        assert_eq!(self.det.unique_races(), 0);
    }
}

/// The split shapes that carry the benchmark's detector traffic, and the
/// one the row path does not take, timed per lane.
fn bench_split_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_split");

    // interac's shape: every thread loads, then stores, its own cell, over
    // and over — after the first round each access is decided by P3.
    let mut d = SplitDriver::new(SPLIT_WARPS);
    group.throughput(Throughput::Elements(64));
    group.bench_function("own_cell_reaccess_p3", |b| {
        b.iter(|| d.own_cell_round(1, 1));
    });
    d.assert_p3_dominates();

    // The same traffic from a diverged warp: every other lane active, so
    // the words are still `base + lane` but the mask has holes.
    let mut d = SplitDriver::new(SPLIT_WARPS);
    group.throughput(Throughput::Elements(32));
    group.bench_function("gapped_mask_row", |b| {
        b.iter(|| d.own_cell_round(2, 1));
    });
    d.assert_p3_dominates();

    // And at stride 2 — lane `i` on word `base + 2i` — which is not a row:
    // these lanes go one by one, and must not pay for the row path.
    let mut d = SplitDriver::new(SPLIT_WARPS);
    group.throughput(Throughput::Elements(64));
    group.bench_function("strided_per_lane", |b| {
        b.iter(|| d.own_cell_round(1, 2));
    });
    d.assert_p3_dominates();

    // matrix-mult's shape: splits whose lanes share words in groups, which
    // coalescing folds to a lane per word — 2 + 16 engine visits for the
    // 64 lanes, the sixteen as a row. Per lane issued, not per visit.
    let mut d = SplitDriver::new(SPLIT_WARPS);
    group.throughput(Throughput::Elements(64));
    group.bench_function("word_groups_matmul_2_and_16", |b| {
        b.iter(|| d.matmul_step());
    });
    let stats = d.det.stats();
    assert_eq!(stats.coalesced_saved * 18, stats.accesses * 46, "{stats:?}");

    // The stencil's shape: each launch reads three neighbouring source
    // words per thread and writes one destination word — a first touch
    // (P1) or a read of a never-written word (P2) every time.
    let mut d = SplitDriver::new(SPLIT_WARPS);
    group.throughput(Throughput::Elements(u64::from(SPLIT_WARPS) * 32 * 4));
    group.bench_function("first_touch_sweep_p1_p2", |b| {
        b.iter(|| d.stencil_launch());
    });
    let stats = d.det.stats();
    assert_eq!(
        stats.safe_hits[0] + stats.safe_hits[1],
        stats.accesses,
        "P1/P2 must decide every access: {stats:?}"
    );

    // The same launch at the top rung's size by a detector that has never
    // run: 256 Ki words of both slot tables are touched for the first
    // time, which is what every benchmark pass pays.
    group.throughput(Throughput::Elements(u64::from(COLD_WARPS) * 32 * 4));
    group.bench_function("first_touch_cold_table_128Ki", |b| {
        b.iter(|| SplitDriver::new(COLD_WARPS).stencil_launch());
    });
    group.finish();
}

fn bench_workloads_under_detectors(c: &mut Criterion) {
    use workloads::Size;
    let mut group = c.benchmark_group("workload_simulation");
    group.sample_size(10);
    for name in ["b_reduce", "graph-color", "hotspot"] {
        let w = workloads::by_name(name).expect("workload exists");
        group.bench_function(format!("{name}/native"), |b| {
            b.iter(|| {
                let mut gpu = Gpu::new(small_device());
                let launches = w.build(&mut gpu, Size::Test);
                for l in &launches {
                    gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut NullHook)
                        .unwrap();
                }
                black_box(gpu.clock().total_time())
            });
        });
        group.bench_function(format!("{name}/iguard"), |b| {
            b.iter(|| {
                let mut gpu = Gpu::new(small_device());
                let launches = w.build(&mut gpu, Size::Test);
                let mut tool = Instrumented::new(Iguard::default());
                for l in &launches {
                    gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool)
                        .unwrap();
                }
                black_box(tool.tool().unique_races())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_checks,
    bench_lock_table,
    bench_simulator_throughput,
    bench_detector_end_to_end,
    bench_barracuda_end_to_end,
    bench_metadata_table_slots,
    bench_split_shapes,
    bench_flat_contention_path,
    bench_flat_history_path,
    bench_workloads_under_detectors
);
criterion_main!(benches);
