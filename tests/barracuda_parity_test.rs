//! Baseline parity: Barracuda must behave exactly as the paper reports per
//! workload — refuse the binaries it cannot handle (and for the right
//! reason), find the races it found, miss the ITS races it is blind to,
//! and fail to terminate on `interac`.

use iguard_repro::barracuda::{self, Barracuda, BarracudaConfig, BarracudaFailure, BinaryKind};
use iguard_repro::gpu_sim::error::SimError;
use iguard_repro::gpu_sim::hook::ExecMode;
use iguard_repro::gpu_sim::machine::{Gpu, GpuConfig};
use iguard_repro::nvbit_sim::Instrumented;
use iguard_repro::workloads::{self, BarracudaExpectation, Size, Suite, Workload};

const SEED: u64 = 42;

enum Outcome {
    Unsupported(barracuda::Unsupported),
    Ran { races: usize, timed_out: bool },
}

fn run_barracuda(w: &Workload) -> Outcome {
    let cfg = GpuConfig {
        seed: SEED,
        mode: ExecMode::Its,
        max_steps: 80_000_000,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    let launches = w.build(&mut gpu, Size::Test);
    let kind = if w.multi_file {
        BinaryKind::MultiFile
    } else {
        BinaryKind::SingleFile
    };
    if let Err(u) = barracuda::supports(&Workload::kernels(&launches), kind) {
        return Outcome::Unsupported(u);
    }
    let bcfg = BarracudaConfig {
        timeout_serial_cycles: 660_000,
    };
    let mut tool = Instrumented::new(Barracuda::new(bcfg));
    for l in &launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool) {
            Ok(_) | Err(SimError::Timeout { .. }) => {}
            Err(e) => panic!("{}: {e}", w.name),
        }
    }
    let races = tool.tool_mut().finish(gpu.clock_mut()).len();
    let timed_out = matches!(
        tool.tool().failure(),
        Some(BarracudaFailure::DidNotTerminate)
    );
    Outcome::Ran { races, timed_out }
}

#[test]
fn barracuda_matches_every_table4_expectation() {
    for w in workloads::racey() {
        let outcome = run_barracuda(&w);
        match (w.barracuda, outcome) {
            (BarracudaExpectation::Unsupported, Outcome::Unsupported(_)) => {}
            (BarracudaExpectation::Races(n), Outcome::Ran { races, timed_out }) => {
                assert!(!timed_out, "{}: unexpected timeout", w.name);
                assert_eq!(races, n, "{}: expected {n} races", w.name);
            }
            (BarracudaExpectation::Timeout(n), Outcome::Ran { races, timed_out }) => {
                assert!(timed_out, "{}: expected non-termination", w.name);
                assert_eq!(races, n, "{}: expected {n} partial races", w.name);
            }
            (exp, Outcome::Unsupported(u)) => {
                panic!("{}: expected {exp:?}, got unsupported ({u})", w.name)
            }
            (exp, Outcome::Ran { races, timed_out }) => {
                panic!(
                    "{}: expected {exp:?}, got {races} races (timeout={timed_out})",
                    w.name
                )
            }
        }
    }
}

#[test]
fn barracuda_refusal_reasons_are_faithful() {
    // ScoR: scoped atomics. CG: warp barriers (ITS). Libraries: PTX.
    for w in workloads::racey() {
        if let Outcome::Unsupported(u) = run_barracuda(&w) {
            let expected = match w.suite {
                Suite::ScoR => barracuda::Unsupported::ScopedAtomics,
                Suite::Cg | Suite::NvlibCg => barracuda::Unsupported::WarpBarriers,
                _ => barracuda::Unsupported::MultiFilePtx,
            };
            assert_eq!(u, expected, "{}", w.name);
        }
    }
}

#[test]
fn barracuda_misses_its_races_iguard_catches() {
    // reduction (ScoR) has 3 ITS races; Barracuda refuses the suite, but
    // even a hypothetical run would miss them: its HB model assumes
    // same-warp lockstep. Check on a minimal ITS-racy kernel it CAN run.
    use iguard_repro::gpu_sim::prelude::*;
    let mut b = KernelBuilder::new("its_only");
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let is1 = b.eq(tid, 1u32);
    let skip = b.fwd_label();
    b.bra_ifnot(is1, skip);
    let v = b.imm(7);
    b.st(base, 1, v);
    b.bind(skip);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let got = b.ld(base, 1);
    b.st(base, 0, got);
    b.bind(fin);
    let k = b.build();

    let mut gpu = Gpu::new(GpuConfig {
        seed: SEED,
        ..GpuConfig::default()
    });
    let buf = gpu.alloc(4).unwrap();
    let mut bar = Instrumented::new(Barracuda::default());
    gpu.launch(&k, 1, 32, &[buf], &mut bar).unwrap();
    assert!(
        bar.tool_mut().finish(gpu.clock_mut()).is_empty(),
        "the lockstep assumption must blind Barracuda to intra-warp races"
    );

    let mut gpu = Gpu::new(GpuConfig {
        seed: SEED,
        ..GpuConfig::default()
    });
    let buf = gpu.alloc(4).unwrap();
    let mut ig = Instrumented::new(iguard_repro::iguard::Iguard::default());
    gpu.launch(&k, 1, 32, &[buf], &mut ig).unwrap();
    assert!(
        ig.tool().unique_races() > 0,
        "iGUARD must catch the same race"
    );
}

#[test]
fn barracuda_clean_set_has_no_false_positives() {
    for w in workloads::clean() {
        if let Outcome::Ran { races, timed_out } = run_barracuda(&w) {
            assert!(!timed_out, "{}: unexpected timeout", w.name);
            assert_eq!(races, 0, "{}: Barracuda false positives", w.name);
        }
    }
}

#[test]
fn barracuda_oom_policy_matches_fig14() {
    // 50% reservation + 2x footprint shadow against 24 GB capacity.
    let capacity: u64 = 24 << 30;
    for (gb, fits) in [(1u64, true), (4, true), (8, false), (16, false)] {
        let needed = capacity / 2 + 2 * (gb << 30);
        assert_eq!(needed <= capacity, fits, "{gb} GB");
    }
}

#[test]
fn barracuda_oom_fires_end_to_end_at_large_footprints() {
    // Exercise the launch-time reservation check itself (not just the
    // arithmetic): a 10 GB logical footprint cannot coexist with the 50%
    // reservation on a 24 GB device.
    use iguard_repro::gpu_sim::prelude::*;
    let mut gpu = Gpu::new(GpuConfig {
        seed: SEED,
        ..GpuConfig::default()
    });
    let buf = gpu.alloc_logical(64, 10 << 30).unwrap();
    let mut b = KernelBuilder::new("big_footprint");
    let base = b.param(0);
    let tid = b.special(Special::Tid);
    let off = b.mul(tid, 4u32);
    let a = b.add(base, off);
    b.st(a, 0, tid);
    let k = b.build();
    let mut tool = Instrumented::new(Barracuda::default());
    gpu.launch(&k, 1, 32, &[buf], &mut tool).unwrap();
    assert!(
        matches!(
            tool.tool().failure(),
            Some(BarracudaFailure::OutOfMemory { .. })
        ),
        "the reservation policy must fail at launch"
    );

    // iGUARD on the identical setup keeps running (UVM-backed metadata).
    let mut gpu = Gpu::new(GpuConfig {
        seed: SEED,
        ..GpuConfig::default()
    });
    let buf = gpu.alloc_logical(64, 10 << 30).unwrap();
    let mut ig = Instrumented::new(iguard_repro::iguard::Iguard::default());
    gpu.launch(&k, 1, 32, &[buf], &mut ig).unwrap();
    assert_eq!(ig.tool().unique_races(), 0);
}

#[test]
fn curd_is_cheap_on_bulk_synchronous_kernels_and_matches_barracuda_otherwise() {
    use iguard_repro::barracuda::{Curd, CurdPath};
    // b_reduce: syncthreads-only -> fast path, overhead in the ~3x regime
    // the paper quotes; Barracuda on the same workload is ~30x+.
    let w = workloads::by_name("b_reduce").unwrap();
    let mut gpu = Gpu::new(GpuConfig {
        seed: SEED,
        ..GpuConfig::default()
    });
    let launches = w.build(&mut gpu, Size::Bench);
    let kernels = Workload::kernels(&launches);
    let curd = Curd::for_kernels(&kernels, BinaryKind::SingleFile).unwrap();
    assert_eq!(curd.path(), CurdPath::Fast);
    let mut tool = Instrumented::new(curd);
    for l in &launches {
        gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool)
            .unwrap();
    }
    let races = tool.tool_mut().finish(gpu.clock_mut());
    assert!(races.is_empty(), "b_reduce is race-free");
    let curd_time = gpu.clock().total_time();

    let mut gpu = Gpu::new(GpuConfig {
        seed: SEED,
        ..GpuConfig::default()
    });
    let launches = w.build(&mut gpu, Size::Bench);
    for l in &launches {
        gpu.launch(
            &l.kernel,
            l.grid,
            l.block,
            &l.params,
            &mut iguard_repro::gpu_sim::hook::NullHook,
        )
        .unwrap();
    }
    let native_time = gpu.clock().total_time();
    let overhead = curd_time / native_time;
    assert!(
        overhead < 8.0,
        "CURD's fast path must stay in the low-single-digit regime, got {overhead:.1}x"
    );

    // d_sel_if uses atomics -> wholesale Barracuda fallback.
    let w = workloads::by_name("d_sel_if").unwrap();
    let mut gpu = Gpu::new(GpuConfig {
        seed: SEED,
        ..GpuConfig::default()
    });
    let launches = w.build(&mut gpu, Size::Test);
    let kernels = Workload::kernels(&launches);
    let curd = Curd::for_kernels(&kernels, BinaryKind::SingleFile).unwrap();
    assert_eq!(curd.path(), CurdPath::BarracudaFallback);
}
