//! Hybrid static/dynamic detection: the detector side of the
//! `static-an` classification pass (DESIGN.md §13).
//!
//! [`Pruner`] sits between the detector and the instrumentation framework.
//! At **bitmap-build** time (`Tool::wants_at`) it classifies the kernel
//! through a [`ClassificationCache`] and answers whether a global-memory
//! point needs a callback: in [`PruneMode::On`], provably-safe points are
//! dropped before any dispatch/channel/detector cost is paid. Both rules
//! of the pass (read-only kernel, atomic-protected kernel) read only the
//! kernel body, so a verdict holds for every launch and the bitmap never
//! has to be rebuilt.
//!
//! [`PruneMode::Verify`] is the soundness harness: nothing is pruned, but
//! every dynamic access at a would-be-pruned point is tagged, and any
//! detector report originating from a tagged access increments
//! [`PruneStats::verify_violations`]. A non-zero count is a soundness bug
//! in the static pass; the fuzz differential arm and the unit tests gate
//! on it staying zero.

use gpu_sim::kernel::Kernel;
use static_an::ClassificationCache;

/// How the detector uses the static pre-analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// No static analysis at all. The detector is byte-identical to the
    /// pre-pruning implementation (the default).
    #[default]
    Off,
    /// Skip instrumentation callbacks at provably-safe points.
    On,
    /// Instrument everything, but tag accesses that `On` would have pruned
    /// and count detector reports that originate from them
    /// ([`PruneStats::verify_violations`] — must stay zero).
    Verify,
}

/// Counters of the static-pruning plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Kernel bodies analyzed (classification-cache misses).
    pub analyzed_kernels: u64,
    /// Static global-memory instrumentation points across analyzed kernels.
    pub static_mem_points: u64,
    /// ... of which provably safe.
    pub static_safe_points: u64,
    /// ... of which unknown (instrumented as before).
    pub static_unknown_points: u64,
    /// Verify mode only: dynamic lane accesses that `On` would have
    /// pruned (in `On` mode the framework never dispatches them, so the
    /// equivalent dynamic count lives in `nvbit_sim::InstrStats::skipped_mem`).
    pub pruned_accesses: u64,
    /// Verify mode only: detector race reports that originated from a
    /// provably-safe access. Any non-zero value is a static-analysis
    /// soundness bug.
    pub verify_violations: u64,
}

/// The detector side of static pruning (see module docs).
#[derive(Debug)]
pub struct Pruner {
    mode: PruneMode,
    cache: ClassificationCache,
    stats: PruneStats,
}

impl Pruner {
    /// Creates a pruner in `mode` (which must not be [`PruneMode::Off`] —
    /// detectors simply hold no pruner when pruning is off).
    #[must_use]
    pub fn new(mode: PruneMode) -> Self {
        debug_assert!(mode != PruneMode::Off);
        Pruner {
            mode,
            cache: ClassificationCache::new(),
            stats: PruneStats::default(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> PruneStats {
        self.stats
    }

    /// Whether the static pass proved `(kernel, pc)` safe, classifying the
    /// kernel (cached) and counting its points on first sight. Shared by
    /// the bitmap predicate and the verify-mode tagger so they can never
    /// disagree.
    fn is_safe(&mut self, kernel: &Kernel, pc: usize) -> bool {
        let misses_before = self.cache.stats().misses;
        let cls = self.cache.classify(kernel);
        if self.cache.stats().misses != misses_before {
            self.stats.analyzed_kernels += 1;
            self.stats.static_mem_points += cls.mem_points as u64;
            self.stats.static_safe_points += cls.safe_points as u64;
            self.stats.static_unknown_points += cls.unknown_points as u64;
        }
        let safe = cls.class_at(pc).is_safe();
        // Kernel-global invariant: safe points only exist when *all* mem
        // points are safe, which is what makes skipping side-effect-free.
        debug_assert!(!safe || cls.all_mem_safe());
        safe
    }

    /// The bitmap-build predicate for a global-memory point: `false` to
    /// prune the callback. Only called by the framework while building a
    /// kernel's instrumentation bitmap.
    pub fn wants_mem(&mut self, kernel: &Kernel, pc: usize) -> bool {
        let safe = self.is_safe(kernel, pc);
        !(safe && self.mode == PruneMode::On)
    }

    /// Verify-mode tag: would `On` have pruned this dynamic access?
    pub fn verify_would_prune(&mut self, kernel: &Kernel, pc: usize) -> bool {
        self.mode == PruneMode::Verify && self.is_safe(kernel, pc)
    }

    /// Verify-mode counter: `n` tagged accesses reached the detector.
    pub fn count_pruned_accesses(&mut self, n: u64) {
        self.stats.pruned_accesses += n;
    }

    /// Mutable handle on the verify-violation counter, so the detector's
    /// report sink can charge it without borrowing the whole pruner.
    pub fn verify_violations_mut(&mut self) -> &mut u64 {
        &mut self.stats.verify_violations
    }
}
