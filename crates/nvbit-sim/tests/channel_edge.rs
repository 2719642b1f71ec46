//! Edge cases of the device→host channel and the per-name analysis cache.

use gpu_sim::machine::{Gpu, GpuConfig};
use gpu_sim::prelude::*;
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::channel::HostChannel;
use nvbit_sim::{Instrumented, Tool};
use std::num::NonZeroUsize;

fn channel(capacity: usize) -> HostChannel<u32> {
    let capacity = NonZeroUsize::new(capacity).expect("positive capacity");
    HostChannel::with_capacity(capacity, 5, 40, CostCategory::Detection)
}

#[test]
fn draining_an_empty_channel_is_a_free_noop() {
    let mut ch = channel(8);
    assert_eq!(ch.pending(), 0);
    assert!(ch.drain().is_empty());
    // Idempotent: a second drain is just as empty, and no counter moved.
    assert!(ch.drain().is_empty());
    let s = ch.stats();
    assert_eq!((s.sent, s.drained, s.full_flushes), (0, 0, 0));
}

#[test]
fn drain_returns_records_in_ship_order_exactly_once() {
    let mut ch = channel(8);
    let mut clock = Clock::new();
    for v in 0..5 {
        ch.send(v, &mut clock);
    }
    assert_eq!(ch.pending(), 5);
    assert_eq!(ch.drain(), vec![0, 1, 2, 3, 4]);
    assert_eq!(ch.pending(), 0);
    // Already-drained records never reappear.
    assert!(ch.drain().is_empty());
    let s = ch.stats();
    assert_eq!((s.sent, s.drained, s.full_flushes), (5, 5, 0));
}

#[test]
fn hitting_capacity_forces_a_flush_and_charges_it() {
    let mut ch = channel(3);
    let mut clock = Clock::new();
    for v in 0..3 {
        ch.send(v, &mut clock);
    }
    // The third send filled the buffer: flushed to the host side already.
    assert_eq!(ch.pending(), 0);
    assert_eq!(ch.stats().full_flushes, 1);
    // 3 ship charges + 1 flush charge, all serial.
    let (_, serial) = clock.raw(CostCategory::Detection);
    assert_eq!(serial, 3 * 5 + 40);
    // Flushed records are retained for the final drain, still in order.
    ch.send(99, &mut clock);
    assert_eq!(ch.drain(), vec![0, 1, 2, 99]);
    assert_eq!(ch.stats().drained, 4);
}

/// A tool that counts callbacks; used to observe the analysis cache.
#[derive(Default)]
struct Counter {
    mem: u64,
}

impl Tool for Counter {
    fn on_mem(&mut self, _access: &gpu_sim::hook::MemAccess<'_>, _clock: &mut Clock) {
        self.mem += 1;
    }
}

fn store_kernel() -> Kernel {
    let mut b = KernelBuilder::new("edge_cached");
    let base = b.param(0);
    let one = b.imm(1);
    b.st(base, 0, one);
    b.build()
}

/// NVBit caches instrumented functions by name: rebuilding the same-named
/// kernel (a brand-new `Arc<str>` identity) must not re-charge the
/// one-time binary analysis, and callbacks keep firing on the rebuilt
/// kernel.
#[test]
fn analysis_is_charged_once_across_kernel_rebuilds() {
    let mut gpu = Gpu::new(GpuConfig::default());
    let buf = gpu.alloc(4).unwrap();
    let mut tool = Instrumented::new(Counter::default());

    let first = store_kernel();
    gpu.launch(&first, 1, 1, &[buf], &mut tool).unwrap();
    let (_, after_first) = gpu.clock().raw(gpu_sim::timing::CostCategory::Nvbit);
    assert!(after_first > 0, "first launch must pay analysis");
    assert_eq!(tool.tool().mem, 1);

    // Fresh build: same name, different Arc.
    let rebuilt = store_kernel();
    assert!(!std::sync::Arc::ptr_eq(&first.name, &rebuilt.name));
    gpu.launch(&rebuilt, 1, 1, &[buf], &mut tool).unwrap();
    let (_, after_second) = gpu.clock().raw(gpu_sim::timing::CostCategory::Nvbit);
    assert_eq!(
        after_first, after_second,
        "rebuilt same-named kernel re-paid analysis"
    );
    assert_eq!(tool.tool().mem, 2, "callback lost after rebuild");
}
