//! Criterion microbenchmarks of `gpu_sim::machine`'s scheduler-and-execute
//! loop, reported per lane-instruction so the figures line up with the
//! benchmark's `gpu_sim.lane_instrs_per_s` (1e9 / ns-per-element):
//!
//! - a converged ALU loop on full warps (the dense `0..32` path),
//! - a lane-dependent loop under ITS (diverged pcs, subdivision, the
//!   `trailing_zeros` path),
//! - a `bar.sync`-heavy kernel at `block_dim` 1024 (barrier arrival and
//!   release across 32 warps),
//! - the zoo's shape: a 16 × 128 grid of `workloads::util::busy_work` at
//!   the `Size::Bench` trip count under the default `its_split_prob`, so
//!   warps are split at random and reconverge at the loop's branches —
//!   reported per scheduler step as well, which is the unit the scheduling
//!   front end is paid in,
//! - the launch-dominated shape: the top `ladder_stencil` rung, 128 Ki
//!   threads running 15 instructions each — on one long-lived `Gpu` whose
//!   L1s have seen the addresses before, and on a fresh `Gpu` per
//!   iteration (`Gpu::new`, inputs, both launches), which is what a
//!   benchmark pass pays and where the per-SM shadow's first touch shows,
//! - and `Gpu::new` alone at the default 16 MiB, per construction: what
//!   every job of a service wave pays before its first instruction (the
//!   L2 is paged, so it is the 72 empty L1s, not a clear of the device).
//!
//! ```text
//! cargo bench -p bench --bench interpreter_hot_path
//! ```

#[path = "../tests/common/mod.rs"]
mod common;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use std::hint::black_box;

use gpu_sim::prelude::*;
use workloads::util::{busy_work, work_iters};
use workloads::{Launch, Size};

/// A device small enough that `Gpu::new` is not what a sample measures.
fn device(mem_words: usize, its_split_prob: f64) -> Gpu {
    Gpu::new(GpuConfig {
        mem_words,
        its_split_prob,
        ..bench::gpu_config(bench::DEFAULT_SEED)
    })
}

/// `x = x * 3 + tid`, `rounds` times, then one store: every warp stays
/// converged.
fn alu_loop(rounds: u32) -> Kernel {
    let mut b = KernelBuilder::new("bench_alu_loop");
    let out = b.param(0);
    let g = b.special(Special::GlobalTid);
    let x = b.imm(1);
    let i = b.imm(0);
    let top = b.here();
    let x3 = b.mul(x, 3u32);
    b.assign_add(x, x3, g);
    b.assign_add(i, i, 1u32);
    let more = b.lt(i, rounds);
    b.bra_if(more, top);
    let off = b.mul(g, 4u32);
    let a = b.add(out, off);
    b.st(a, 0, x);
    b.build()
}

/// The same loop with a lane-dependent trip count (`1 + lane % 8` times
/// `rounds`): lanes leave the loop at eight different times.
fn divergent_loop(rounds: u32) -> Kernel {
    let mut b = KernelBuilder::new("bench_divergent_loop");
    let out = b.param(0);
    let g = b.special(Special::GlobalTid);
    let lane = b.special(Special::LaneId);
    let group = b.rem(lane, 8u32);
    let scaled = b.mul(group, rounds);
    let trips = b.add(scaled, rounds);
    let x = b.imm(1);
    let i = b.imm(0);
    let top = b.here();
    let x3 = b.mul(x, 3u32);
    b.assign_add(x, x3, g);
    b.assign_add(i, i, 1u32);
    let more = b.lt(i, trips);
    b.bra_if(more, top);
    let off = b.mul(g, 4u32);
    let a = b.add(out, off);
    b.st(a, 0, x);
    b.build()
}

/// `rounds` times: publish to the scratchpad, `bar.sync`.
fn barrier_loop(rounds: u32) -> Kernel {
    let mut b = KernelBuilder::new("bench_barrier_loop");
    b.shared(1024);
    let tid = b.special(Special::Tid);
    let soff = b.mul(tid, 4u32);
    let i = b.imm(0);
    let top = b.here();
    b.st_shared(soff, 0, i);
    b.syncthreads();
    b.assign_add(i, i, 1u32);
    let more = b.lt(i, rounds);
    b.bra_if(more, top);
    b.build()
}

/// What most zoo members spend their instructions on: the busy loop, then
/// one store.
fn busy_work_kernel() -> Kernel {
    let mut b = KernelBuilder::new("bench_busy_work");
    let out = b.param(0);
    busy_work(&mut b, work_iters(Size::Bench));
    let g = b.special(Special::GlobalTid);
    let off = b.mul(g, 4u32);
    let a = b.add(out, off);
    b.st(a, 0, g);
    b.build()
}

/// Runs `launches` natively; returns their `(steps, lane_instrs)`.
fn run(gpu: &mut Gpu, launches: &[Launch]) -> (u64, u64) {
    launches.iter().fold((0, 0), |(steps, lanes), l| {
        let stats = gpu
            .launch(&l.kernel, l.grid, l.block, &l.params, &mut NullHook)
            .expect("benchmark kernel runs");
        (steps + stats.steps, lanes + stats.lane_instrs)
    })
}

/// Runs `launches` once for their lane-instruction count, then times them.
fn bench_launches(group: &mut BenchmarkGroup<'_>, id: &str, gpu: &mut Gpu, launches: &[Launch]) {
    group.throughput(Throughput::Elements(run(gpu, launches).1));
    group.bench_function(id, |b| b.iter(|| black_box(run(gpu, launches))));
}

fn one_launch(kernel: Kernel, grid: u32, block: u32, out: u32) -> Vec<Launch> {
    vec![Launch {
        kernel,
        grid,
        block,
        params: vec![out],
    }]
}

fn bench_interpreter(c: &mut Criterion) {
    let split_prob = GpuConfig::default().its_split_prob;
    let mut group = c.benchmark_group("interpreter");
    group.sample_size(10);

    // No subdivision: every step is a full, converged warp.
    let mut gpu = device(1 << 14, 0.0);
    let out = gpu.alloc(4096).expect("output fits");
    let launches = one_launch(alu_loop(256), 32, 128, out);
    bench_launches(&mut group, "converged_alu_32x128", &mut gpu, &launches);

    let mut gpu = device(1 << 14, split_prob);
    let out = gpu.alloc(4096).expect("output fits");
    let launches = one_launch(divergent_loop(32), 32, 128, out);
    bench_launches(&mut group, "divergent_its_32x128", &mut gpu, &launches);

    let launches = one_launch(barrier_loop(64), 4, 1024, 0);
    bench_launches(&mut group, "bar_sync_4x1024", &mut gpu, &launches);

    let out = gpu.alloc(2048).expect("output fits");
    let launches = one_launch(busy_work_kernel(), 16, 128, out);
    bench_launches(&mut group, "busy_work_its_16x128", &mut gpu, &launches);
    group.throughput(Throughput::Elements(run(&mut gpu, &launches).0));
    group.bench_function("busy_work_its_16x128_per_step", |b| {
        b.iter(|| black_box(run(&mut gpu, &launches)));
    });

    let mut gpu = device(1 << 19, split_prob);
    let launches = common::stencil_launches(&mut gpu, common::LADDER_THREADS[2]);
    bench_launches(&mut group, "stencil_128Ki_threads", &mut gpu, &launches);

    // Same throughput setting: the two launches' lane-instructions.
    group.bench_function("stencil_128Ki_fresh_gpu", |b| {
        b.iter(|| {
            let mut gpu = device(1 << 19, split_prob);
            let launches = common::stencil_launches(&mut gpu, common::LADDER_THREADS[2]);
            black_box(run(&mut gpu, &launches))
        });
    });

    group.throughput(Throughput::Elements(1));
    group.bench_function("gpu_new_default", |b| {
        b.iter(|| black_box(Gpu::new(bench::gpu_config(bench::DEFAULT_SEED))));
    });

    group.finish();
}

criterion_group!(benches, bench_interpreter);
criterion_main!(benches);
