//! A counting allocator: the peak of live heap bytes is the program's
//! memory demand. `VmHWM` also counts what glibc keeps after a free, and
//! whether one freed 16 MiB device store stays in its heap depends on the
//! allocation history, which moves `VmHWM` by 16 MiB from seed to seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards every call to the system allocator unchanged (zeroed
/// allocations stay `calloc`, so lazily zeroed pages stay lazy).
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method hands its arguments to `System` as it got them and
// returns what `System` returned, so `System`'s guarantees are this
// allocator's; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator with `layout`, so from `System`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from this allocator with `layout`, so from
        // `System`; the caller upholds the rest of `realloc`'s contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

/// Peak of live heap bytes since the process began, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_follows_the_largest_live_total() {
        let block = vec![1u8; 64 << 20];
        assert!(super::peak_mb() >= 64.0);
        drop(block);
        assert!(super::peak_mb() >= 64.0, "a peak does not fall");
    }
}
