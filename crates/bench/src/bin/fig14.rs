//! Regenerates **Figure 14**: overhead as the application's memory
//! footprint scales from 1 GB to 16 GB (d_reduce from CUB). The paper's
//! shape: Barracuda's reserve-half-the-GPU policy runs **out of memory**
//! beyond 8 GB, while iGUARD's UVM-backed metadata degrades gracefully —
//! overhead grows with the page faults of an ever-larger metadata working
//! set but never fails.
//!
//! Footprints are modelled with logical allocation sizes (the simulator
//! does not host multi-GB arrays); the detector's `addr_scale` spreads
//! metadata touches across the correspondingly larger managed region.
//!
//! ```text
//! cargo run -p bench --release --bin fig14
//! ```

use bench::{gpu_config, par_map, DEFAULT_SEED};
use gpu_sim::hook::NullHook;
use gpu_sim::machine::Gpu;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use uvm_sim::UvmStats;
use workloads::{Size, Workload};

const GB: u64 = 1 << 30;
const FOOTPRINTS_GB: [u64; 5] = [1, 2, 4, 8, 16];

/// Builds d_reduce with its buffers *logically* inflated to `footprint`.
fn build_scaled(gpu: &mut Gpu, footprint: u64) -> Vec<workloads::Launch> {
    // Claim the logical footprint beyond what the real buffers occupy.
    let w = workloads::by_name("d_reduce").expect("d_reduce exists");
    let launches = w.build(gpu, Size::Bench);
    let occupied = gpu.allocated_bytes();
    gpu.alloc_logical(16, footprint.saturating_sub(occupied))
        .expect("logical footprint fits");
    launches
}

fn addr_scale_for(footprint: u64, backing_bytes: u64) -> u64 {
    // Map the small backing arrays onto the logical footprint so metadata
    // touches spread over footprint×4 bytes of managed space -- the span
    // the real tool would touch shadowing `footprint` bytes of data.
    (footprint / backing_bytes.max(1)).max(1)
}

/// Native runtime of d_reduce at the inflated footprint.
fn native_scaled(footprint: u64) -> f64 {
    let mut gpu = Gpu::new(gpu_config(DEFAULT_SEED));
    let launches = build_scaled(&mut gpu, footprint);
    for l in &launches {
        gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut NullHook)
            .unwrap();
    }
    gpu.clock().total_time()
}

/// iGUARD runtime + UVM counters at the inflated footprint.
fn iguard_scaled(footprint: u64) -> (f64, UvmStats) {
    let mut gpu = Gpu::new(gpu_config(DEFAULT_SEED));
    let before = gpu.allocated_bytes();
    let launches = {
        let w = workloads::by_name("d_reduce").expect("d_reduce exists");
        w.build(&mut gpu, Size::Bench)
    };
    let backing_bytes = gpu.allocated_bytes() - before;
    gpu.alloc_logical(16, footprint.saturating_sub(gpu.allocated_bytes()))
        .expect("logical footprint fits");
    let cfg = IguardConfig {
        addr_scale: addr_scale_for(footprint, backing_bytes),
        ..IguardConfig::default()
    };
    let mut tool = Instrumented::new(Iguard::new(cfg));
    for l in &launches {
        gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool)
            .unwrap();
    }
    (gpu.clock().total_time(), tool.tool().uvm_stats())
}

/// Barracuda's flat serialized-detection overhead on d_reduce — footprint
/// independent when its reservation fits.
fn barracuda_flat_overhead() -> Option<f64> {
    let w: Workload = workloads::by_name("d_reduce").unwrap();
    let native_run = bench::run_native(&w, Size::Bench, DEFAULT_SEED);
    match bench::run_barracuda(&w, Size::Bench, DEFAULT_SEED, bench::barracuda_config_for()) {
        bench::BarracudaRun::Ran { time, .. } => Some(time / native_run.time),
        _ => None,
    }
}

/// One measured row of the figure.
#[derive(Debug)]
struct Row {
    ig_over: f64,
    uvm: UvmStats,
    barracuda_fits: bool,
}

fn measure(gb: u64) -> Row {
    let footprint = gb * GB;
    let native = native_scaled(footprint);
    let (ig_time, uvm) = iguard_scaled(footprint);
    // Barracuda's reservation policy: 50% of capacity + footprint shadow.
    let capacity = gpu_config(DEFAULT_SEED).device_mem_bytes;
    let needed = capacity / 2 + 2 * footprint;
    Row {
        ig_over: ig_time / native,
        uvm,
        barracuda_fits: needed <= capacity,
    }
}

fn main() {
    bench::switches([]);
    // One run per footprint, plus one (`None`) for Barracuda's flat
    // overhead (reused for every footprint where its reservation fits).
    enum Out {
        Row(Row),
        BarOver(Option<f64>),
    }
    let items = FOOTPRINTS_GB.into_iter().map(Some).chain([None]).collect();
    let mut outs: Vec<Out> = par_map(items, |gb| match gb {
        Some(gb) => Out::Row(measure(gb)),
        None => Out::BarOver(barracuda_flat_overhead()),
    })
    .into_iter()
    .map(|out| out.expect("a footprint run does not panic"))
    .collect();

    let Some(Out::BarOver(bar_over)) = outs.pop() else {
        unreachable!("last run is the Barracuda overhead")
    };

    println!("Figure 14: overheads with memory footprint scaling (d_reduce)");
    println!();
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>12}",
        "footprint", "iGUARD", "UVM faults", "evictions", "Barracuda"
    );
    println!("{}", "-".repeat(66));

    for (gb, out) in FOOTPRINTS_GB.into_iter().zip(outs) {
        let Out::Row(row) = out else {
            unreachable!("footprint rows precede the Barracuda run")
        };
        let barracuda = if !row.barracuda_fits {
            "OOM".to_string()
        } else {
            match bar_over {
                Some(over) => format!("{over:9.1}x"),
                None => "-".to_string(),
            }
        };
        println!(
            "{:>7} GB {:>11.1}x {:>14} {:>12} {:>12}",
            gb, row.ig_over, row.uvm.faults, row.uvm.evictions, barracuda
        );
    }
    println!();
    println!("paper shape: Barracuda OOM beyond 8 GB; iGUARD degrades gracefully");
    println!("(overhead rises with UVM faults/evictions as metadata outgrows free memory)");
}
