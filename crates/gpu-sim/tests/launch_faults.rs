//! The fault plane at the launch boundary: injected aborts and hangs,
//! the constructor's refusals, and the zero-fault invariant.

use faults::{FaultConfig, FaultSite, RATE_ONE};
use gpu_sim::error::SimError;
use gpu_sim::machine::{Gpu, GpuConfig};
use gpu_sim::prelude::*;

fn fill_kernel() -> Kernel {
    let mut b = KernelBuilder::new("fill");
    let gtid = b.special(Special::GlobalTid);
    let base = b.param(0);
    let off = b.mul(gtid, 4u32);
    let addr = b.add(base, off);
    b.st(addr, 0, gtid);
    b.build()
}

fn cfg_with(faults: FaultConfig) -> GpuConfig {
    GpuConfig {
        max_steps: 2_000_000,
        faults,
        ..GpuConfig::default()
    }
}

#[test]
#[should_panic(expected = "num_sms must be positive")]
fn zero_sms_is_refused_by_a_panic() {
    let _ = Gpu::new(GpuConfig {
        num_sms: 0,
        ..GpuConfig::default()
    });
}

#[test]
#[should_panic(expected = "exceeds the 32-bit simulated address space")]
fn infallible_constructor_keeps_its_panic() {
    let _ = Gpu::new(GpuConfig {
        mem_words: (1 << 30) + 1,
        ..GpuConfig::default()
    });
}

#[test]
fn certain_abort_kills_every_launch_and_is_counted() {
    let faults = FaultConfig::disabled()
        .with_seed(11)
        .with_rate(FaultSite::KernelAbort, RATE_ONE);
    let mut gpu = Gpu::new(cfg_with(faults));
    let buf = gpu.alloc(256).unwrap();
    let k = fill_kernel();
    match gpu.launch(&k, 4, 64, &[buf], &mut NullHook) {
        Err(SimError::InjectedFault { site }) => assert_eq!(site, "kernel-abort"),
        other => panic!("expected InjectedFault, got {other:?}"),
    }
    assert_eq!(gpu.fault_stats().get(FaultSite::KernelAbort), 1);
    // The aborted launch never ran: memory is untouched.
    assert!(gpu.read_slice(buf, 256).iter().all(|&v| v == 0));
}

#[test]
fn injected_hang_is_killed_by_the_watchdog() {
    let faults = FaultConfig::disabled()
        .with_seed(11)
        .with_rate(FaultSite::KernelHang, RATE_ONE);
    let mut gpu = Gpu::new(cfg_with(faults));
    let buf = gpu.alloc(4096).unwrap();
    let k = fill_kernel();
    // A big enough grid that the hang point lands mid-execution for most
    // draws; either way the launch must *end* (no infinite loop) and any
    // truncation must surface as Timeout.
    let r = gpu.launch(&k, 32, 128, &[buf], &mut NullHook);
    match r {
        Ok(_) => {} // hang point drawn beyond the kernel's natural length
        Err(SimError::Timeout { .. }) => {
            assert_eq!(gpu.fault_stats().get(FaultSite::KernelHang), 1);
        }
        other => panic!("expected Ok or Timeout, got {other:?}"),
    }
}

#[test]
fn hang_draw_is_deterministic_across_reruns() {
    let run = || {
        let faults = FaultConfig::disabled()
            .with_seed(42)
            .with_rate(FaultSite::KernelHang, RATE_ONE / 2);
        let mut gpu = Gpu::new(cfg_with(faults));
        let buf = gpu.alloc(4096).unwrap();
        let k = fill_kernel();
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(match gpu.launch(&k, 32, 128, &[buf], &mut NullHook) {
                Ok(s) => format!("ok:{}", s.steps),
                Err(e) => format!("err:{e}"),
            });
        }
        (outcomes, gpu.fault_stats())
    };
    assert_eq!(run(), run());
}

#[test]
fn disabled_faults_leave_launch_byte_identical() {
    let run = |faults: FaultConfig| {
        let mut gpu = Gpu::new(cfg_with(faults));
        let buf = gpu.alloc(256).unwrap();
        let k = fill_kernel();
        let s = gpu.launch(&k, 4, 64, &[buf], &mut NullHook).unwrap();
        (s, gpu.read_slice(buf, 256), gpu.clock().total_time())
    };
    // An enabled-but-all-zero-rates config must match the default too.
    let baseline = run(FaultConfig::disabled());
    assert_eq!(baseline, run(FaultConfig::uniform(99, 0)));
    let with_plane = run(FaultConfig::disabled().with_seed(123));
    assert_eq!(baseline, with_plane);
}
