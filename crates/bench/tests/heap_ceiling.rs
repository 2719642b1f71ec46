//! Heap ceilings for the stencil ladder: what a rung's shadow state costs
//! in live heap, natively and under the detector.
//!
//! The per-word shadows (the per-SM L1s, the detector's slot tables) are
//! paged, so a rung pays for the pages it touches. Before that, each of
//! the 72 L1s and both slot tables grew a flat vector to the highest word
//! touched: the 128 Ki rung peaked at 209 MB, and the 4 Mi rung ROADMAP
//! `[bench-v2]` (b) asks for would have wanted ≈ 6 GB. This test pins the
//! 128 Ki rung under 64 MB and records the 1 Mi rung as the first data
//! point toward that item's gate ("inside one 12 s pass under 1 GB of heap").
//! The L2 is paged too, so a device nobody has written costs its 72 empty
//! L1s and little else, whatever `mem_words` says.
//!
//! A `#[global_allocator]` that counts live and peak bytes is the one
//! `unsafe impl` here, and this test crate is the only place it lives.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use common::{stencil_launches, LADDER_THREADS};
use gpu_sim::hook::NullHook;
use gpu_sim::machine::Gpu;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p`, `layout` and `new_size` are the caller's to get
        // right for `System` exactly as for this allocator.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            Self::grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MB: f64 = 1024.0 * 1024.0;

/// The 1 Mi rung's peaks (native, detector) as last recorded, in MB, on
/// the default 16 MiB device. Native: L2 8.4 (the 2 Mi words the rung's two
/// buffers cover, in 16 KB pages; the rest of the device is never mapped),
/// the register file 54.5 (13 registers x 1 Mi lanes), the 32,768 warps'
/// split tables 8.3 (264 B each; the per-lane pc rows they replaced were
/// 128 B, 4.0 in all), the 72 L1s 58.6 (49 of 1.5 KB pages, most of them
/// part-used, 9.4 of page tables). The detector adds 2 Mi words of two
/// 20-byte slot tables, 83.9. The ceiling is 1.25 x these.
const MI_RUNG_PEAK_MB: (f64, f64) = (130.7, 214.5);

/// Peak live heap, in MB above what was live before, of one stencil rung
/// on a fresh default-sized `Gpu`: construction, inputs, both launches
/// and the drops, as one benchmark arm runs it.
fn rung_peak_mb(threads: u32, detect: bool) -> f64 {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    {
        let mut gpu = Gpu::new(bench::gpu_config(bench::DEFAULT_SEED));
        let launches = stencil_launches(&mut gpu, threads);
        let mut tool = Instrumented::new(Iguard::new(IguardConfig::default()));
        for l in &launches {
            let run = if detect {
                gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool)
            } else {
                gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut NullHook)
            };
            run.expect("the stencil runs");
        }
        assert_eq!(tool.tool_mut().race_sites().len(), 0, "race-free");
    }
    (PEAK.load(Relaxed) - before) as f64 / MB
}

/// One test, so no other thread of this binary allocates meanwhile.
#[test]
fn stencil_rungs_stay_under_their_heap_ceilings() {
    let before = LIVE.load(Relaxed);
    let gpu = Gpu::new(bench::gpu_config(bench::DEFAULT_SEED));
    let fresh = LIVE.load(Relaxed) - before;
    eprintln!("a fresh default device: {fresh} bytes live");
    assert!(fresh < 256 << 10, "a fresh device holds {fresh} bytes");
    drop(gpu);

    let top = LADDER_THREADS[2];
    let (native, detect) = (rung_peak_mb(top, false), rung_peak_mb(top, true));
    eprintln!("128 Ki rung: native {native:.1} MB, iguard {detect:.1} MB");
    assert!(native < 64.0 && detect < 64.0, "128 Ki rung over 64 MB");

    let (native, detect) = (rung_peak_mb(1 << 20, false), rung_peak_mb(1 << 20, true));
    eprintln!("1 Mi rung: native {native:.1} MB, iguard {detect:.1} MB");
    let (native_then, detect_then) = MI_RUNG_PEAK_MB;
    assert!(
        native < 1.25 * native_then && detect < 1.25 * detect_then,
        "1 Mi rung over 1.25 x ({native_then}, {detect_then}) MB"
    );
}
