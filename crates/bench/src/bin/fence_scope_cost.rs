//! Regenerates the §1 microbenchmark claim: on a Titan RTX, a block-scope
//! `__threadfence_block()` is **21× faster** than the device-scope
//! `__threadfence()`. The simulator's cost model carries this ratio, and
//! this harness measures it end-to-end by timing fence-heavy kernels.
//!
//! ```text
//! cargo run -p bench --release --bin fence_scope_cost
//! ```

use bench::{drive, gpu_config, par_map, DEFAULT_SEED};
use gpu_sim::prelude::*;
use workloads::Launch;

fn fence_kernel(scope: Scope, fences: u32) -> Kernel {
    let name = if scope == Scope::Block {
        "fence_block"
    } else {
        "fence_device"
    };
    let mut b = KernelBuilder::new(name);
    // Straight-line unrolled fences: no loop bookkeeping in the timing.
    for _ in 0..fences {
        b.membar(scope);
    }
    b.build()
}

fn time_kernel(scope: Scope, fences: u32) -> f64 {
    let mut gpu = Gpu::new(gpu_config(DEFAULT_SEED));
    let launch = Launch {
        kernel: fence_kernel(scope, fences),
        grid: 8,
        block: 128,
        params: Vec::new(),
    };
    drive(
        &mut gpu,
        [&launch],
        &mut NullHook,
        &launch.kernel.name,
        |_| false,
    )
    .time
}

fn main() {
    const FENCES: u32 = 64;
    bench::switches([]);
    let points = vec![
        (Scope::Block, 2 * FENCES),
        (Scope::Block, FENCES),
        (Scope::Device, 2 * FENCES),
        (Scope::Device, FENCES),
    ];
    let times: Vec<f64> = par_map(points, |(scope, n)| time_kernel(scope, n))
        .into_iter()
        .map(|t| t.expect("a fence timing run does not panic"))
        .collect();

    // Differencing two iteration counts cancels the loop skeleton exactly.
    let net_block = times[0] - times[1];
    let net_device = times[2] - times[3];
    println!("fence microbenchmark ({FENCES} fences/thread net, 8x128 grid)");
    println!("  block-scope  __threadfence_block(): {net_block:>10.0} cycles");
    println!("  device-scope __threadfence():       {net_device:>10.0} cycles");
    println!(
        "  ratio: {:.1}x   (paper Sec 1: block fence is 21x faster on Titan RTX)",
        net_device / net_block
    );
}
