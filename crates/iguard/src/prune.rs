//! Hybrid static/dynamic detection: the launch-side driver of the
//! `static-an` classification pass (DESIGN.md §13).
//!
//! [`Pruner`] sits between the detector and the instrumentation framework:
//!
//! - at **bitmap-build** time (`Tool::wants_at`) it classifies the kernel
//!   through a [`ClassificationCache`] and answers whether a global-memory
//!   point needs a callback — in [`PruneMode::On`], provably-safe points
//!   are dropped before any dispatch/channel/detector cost is paid;
//! - at **launch** time (`Tool::at_launch`) it re-validates every
//!   *conditional* classification (thread-private region disjointness)
//!   against the concrete parameter values and thread count. A violated
//!   assumption invalidates every cached bitmap through
//!   `Tool::take_reinstrument` *before* the launch executes a single
//!   access, then stays conservative: the rebuilt bitmap instruments
//!   everything the new geometry cannot prove safe;
//! - **provably-racy** sites are reported at launch time, without running
//!   the detector, gated on the launch geometry that makes them racy
//!   (a uniform store needs ≥ 2 threads, a block-scoped atomic ≥ 2
//!   blocks). Racy points stay instrumented — the static report is
//!   *additional* evidence, kept separate from the dynamic
//!   [`crate::report::RaceReporter`] stream so report parity between
//!   pruned and unpruned runs is untouched.
//!
//! [`PruneMode::Verify`] is the soundness harness: nothing is pruned, but
//! every dynamic access at a would-be-pruned point is tagged, and any
//! detector report originating from a tagged access increments
//! [`PruneStats::verify_violations`]. A non-zero count is a soundness bug
//! in the static pass; the fuzz differential arm and the unit tests gate
//! on it staying zero.

use std::sync::Arc;

use gpu_sim::hook::LaunchInfo;
use gpu_sim::kernel::Kernel;
use static_an::{AccessClassification, CacheStats, ClassificationCache, RacySite};
// The classification vocabulary is part of this module's API surface.
pub use static_an::{PointClass, RacyReason, SafeReason};

/// How the detector uses the static pre-analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// No static analysis at all. The detector is byte-identical to the
    /// pre-pruning implementation (the default).
    #[default]
    Off,
    /// Skip instrumentation callbacks at provably-safe points and report
    /// provably-racy sites at launch time.
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
    /// ... of which provably racy.
    pub static_racy_points: u64,
    /// ... of which unknown (instrumented as before).
    pub static_unknown_points: u64,
    /// Launches whose geometry failed a conditional classification's
    /// region check (the kernel ran fully instrumented).
    pub conditional_failures: u64,
    /// Launches that invalidated previously pruned bitmaps because their
    /// geometry violated conditions an earlier launch satisfied.
    pub invalidations: u64,
    /// Static race reports emitted at launch time.
    pub static_races: u64,
    /// Verify mode only: dynamic lane accesses that `On` would have
    /// pruned (in `On` mode the framework never dispatches them, so the
    /// equivalent dynamic count lives in `nvbit_sim::InstrStats::skipped_mem`).
    pub pruned_accesses: u64,
    /// Verify mode only: detector race reports that originated from a
    /// provably-safe access. Any non-zero value is a static-analysis
    /// soundness bug.
    pub verify_violations: u64,
}

/// A race reported statically, before the kernel ran.
#[derive(Debug, Clone)]
pub struct StaticRaceReport {
    /// Kernel the site belongs to.
    pub kernel: Arc<str>,
    /// Program counter of the racy instruction.
    pub pc: usize,
    /// Source line attached to the instruction, if any.
    pub line: Option<String>,
    /// Why the site is provably racy.
    pub reason: RacyReason,
}

/// Launch geometry the condition checks run against.
#[derive(Debug, Default)]
struct Geometry {
    params: Vec<u32>,
    total_threads: u32,
    grid_dim: u32,
}

/// Per-classification launch state: whether the live bitmap was built
/// pruned, and which racy sites still await a geometry that arms them.
#[derive(Debug)]
struct CondEntry {
    name: Arc<str>,
    cls: Arc<AccessClassification>,
    /// The currently cached instrumentation bitmap skips this kernel's
    /// safe points. Cleared whenever the framework drops its bitmaps.
    pruned: bool,
    /// Racy sites not yet reported (no launch geometry has armed them).
    pending: Vec<RacySite>,
}

/// Whether `geometry` makes a statically-racy site actually racy.
fn gate_ok(reason: RacyReason, geom: &Geometry) -> bool {
    match reason {
        RacyReason::UniformStore => geom.total_threads >= 2,
        RacyReason::BlockScopedAtomic => geom.grid_dim >= 2,
    }
}

/// The launch-side driver of static pruning (see module docs).
#[derive(Debug)]
pub struct Pruner {
    mode: PruneMode,
    cache: ClassificationCache,
    entries: Vec<CondEntry>,
    geom: Geometry,
    invalidate: bool,
    stats: PruneStats,
    reports: Vec<StaticRaceReport>,
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
            entries: Vec::new(),
            geom: Geometry::default(),
            invalidate: false,
            stats: PruneStats::default(),
            reports: Vec::new(),
        }
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> PruneMode {
        self.mode
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> PruneStats {
        self.stats
    }

    /// Classification-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Races reported statically so far.
    #[must_use]
    pub fn reports(&self) -> &[StaticRaceReport] {
        &self.reports
    }

    /// Launch entry: stash the geometry for this launch's condition
    /// checks, arm pending racy reports, and invalidate pruned bitmaps
    /// whose conditional assumptions this launch violates.
    pub fn on_launch(&mut self, info: &LaunchInfo) {
        self.geom = Geometry {
            params: info.params.clone(),
            total_threads: info.total_threads,
            grid_dim: info.grid_dim,
        };
        let mut tripped = false;
        for e in &mut self.entries {
            if !(Arc::ptr_eq(&e.name, &info.kernel_name) || *e.name == *info.kernel_name) {
                continue;
            }
            Self::drain_armed(
                &mut e.pending,
                &e.name,
                &self.geom,
                &mut self.stats,
                &mut self.reports,
            );
            if e.cls.conditional()
                && !e
                    .cls
                    .conditions_hold(&self.geom.params, self.geom.total_threads)
            {
                self.stats.conditional_failures += 1;
                if e.pruned {
                    tripped = true;
                }
            }
        }
        if tripped {
            // The framework drops *all* bitmaps on reinstrumentation, so
            // every entry's "built pruned" flag is stale; rebuilds under
            // the new geometry will re-set them honestly.
            self.invalidate = true;
            self.stats.invalidations += 1;
            for e in &mut self.entries {
                e.pruned = false;
            }
        }
    }

    /// Moves every pending racy site armed by `geom` into the report list.
    fn drain_armed(
        pending: &mut Vec<RacySite>,
        name: &Arc<str>,
        geom: &Geometry,
        stats: &mut PruneStats,
        reports: &mut Vec<StaticRaceReport>,
    ) {
        let mut i = 0;
        while i < pending.len() {
            if gate_ok(pending[i].reason, geom) {
                let site = pending.swap_remove(i);
                stats.static_races += 1;
                reports.push(StaticRaceReport {
                    kernel: Arc::clone(name),
                    pc: site.pc,
                    line: site.line,
                    reason: site.reason,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Polled by the framework after `at_launch` (via
    /// `Tool::take_reinstrument`): true exactly once per tripped launch.
    pub fn take_reinstrument(&mut self) -> bool {
        std::mem::take(&mut self.invalidate)
    }

    /// Classifies `kernel` (cached), doing the once-per-body accounting
    /// and racy-site arming on first sight, and returns the entry index.
    fn classify(&mut self, kernel: &Kernel) -> usize {
        let misses_before = self.cache.stats().misses;
        let cls = self.cache.classify(kernel);
        if self.cache.stats().misses == misses_before {
            // Cache hit: the entry exists (entries are created exactly at
            // miss time and never removed).
            return self
                .entries
                .iter()
                .position(|e| Arc::ptr_eq(&e.cls, &cls))
                .expect("hit implies an existing entry");
        }
        self.stats.analyzed_kernels += 1;
        self.stats.static_mem_points += cls.mem_points as u64;
        self.stats.static_safe_points += cls.safe_points as u64;
        self.stats.static_racy_points += cls.racy_points as u64;
        self.stats.static_unknown_points += cls.unknown_points as u64;
        if cls.conditional() && !cls.conditions_hold(&self.geom.params, self.geom.total_threads) {
            // First sight happens mid-launch, after `on_launch` ran with no
            // entry to check; count this launch's failed condition here.
            self.stats.conditional_failures += 1;
        }
        let mut entry = CondEntry {
            name: Arc::clone(cls.name()),
            cls: Arc::clone(&cls),
            pruned: false,
            pending: cls.racy_sites.clone(),
        };
        Self::drain_armed(
            &mut entry.pending,
            &entry.name,
            &self.geom,
            &mut self.stats,
            &mut self.reports,
        );
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// Whether `On` pruning drops the callback at `(kernel, pc)` under the
    /// current launch geometry. Shared by the bitmap predicate and the
    /// verify-mode tagger so they can never disagree.
    fn prune_decision(&mut self, idx: usize, pc: usize) -> bool {
        let e = &self.entries[idx];
        if !e.cls.class_at(pc).is_safe() {
            return false;
        }
        // Kernel-global invariant: safe points only exist when *all* mem
        // points are safe, which is what makes skipping side-effect-free.
        debug_assert!(e.cls.all_mem_safe());
        e.cls
            .conditions_hold(&self.geom.params, self.geom.total_threads)
    }

    /// The bitmap-build predicate for a global-memory point: `false` to
    /// prune the callback. Only called by the framework while (re)building
    /// a kernel's instrumentation bitmap.
    pub fn wants_mem(&mut self, kernel: &Kernel, pc: usize) -> bool {
        let idx = self.classify(kernel);
        if self.mode != PruneMode::On {
            return true;
        }
        if self.prune_decision(idx, pc) {
            self.entries[idx].pruned = true;
            false
        } else {
            true
        }
    }

    /// Verify-mode tag: would `On` have pruned this dynamic access?
    pub fn verify_would_prune(&mut self, kernel: &Kernel, pc: usize) -> bool {
        if self.mode != PruneMode::Verify {
            return false;
        }
        let idx = self.classify(kernel);
        self.prune_decision(idx, pc)
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
