//! Detector configuration, including the §6.5 optimization toggles used by
//! the Figure 12 ablation and the §6.7 accessor-history ablation.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use faults::FaultConfig;

/// How the detector uses the static pre-analysis (`static_an::analyze`,
/// DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// No static analysis at all: every global-memory access and every
    /// synchronization operation is instrumented (the default).
    #[default]
    Off,
    /// Analyze each kernel once, when it loads, and inject no callback at
    /// the global-memory points it proves safe.
    On,
}

/// The settable parameters of the iGUARD detector: the ablation toggles,
/// the metadata placement, and the fault and pruning planes. Its cycle
/// costs are constants in the modules that charge them (DESIGN.md §4
/// indexes them).
#[derive(Debug, Clone)]
pub struct IguardConfig {
    /// Coalesce same-address load/atomic metadata accesses within a warp
    /// split (§6.5 optimization 1). On by default.
    pub coalescing: bool,
    /// Dynamically-adjusted exponential backoff on metadata-lock contention
    /// (§6.5 optimization 2). On by default.
    pub backoff: bool,
    /// Logical address multiplier for footprint-scaling experiments
    /// (Figure 14); 1 for normal operation.
    pub addr_scale: u64,
    /// How many previous accessors to remember per location (§6.7
    /// ablation). 1 = the paper's default (last accessor + last writer).
    pub history_depth: usize,
    /// Support Independent Thread Scheduling (warp-barrier tracking, R2,
    /// per-thread lock protocols). `false` emulates ScoRD's detection
    /// model, which assumes lockstep warps and therefore misses ITS races
    /// (§4, §7.1: "iGUARD caught 5 more previously unreported true races
    /// in ScoR due to ITS. ScoRD did not report them").
    pub its_support: bool,
    /// Race-report buffer capacity in records (1 MB ≈ 16 K records).
    pub report_capacity: usize,
    /// Metadata-table entry-capacity override. `None` (default) covers
    /// every word injectively; `Some(n)` caps the table at `n` entries,
    /// forcing bounded eviction with missed-check accounting under
    /// pressure (`bench --bin pressure`).
    pub table_capacity_words: Option<usize>,
    /// Fault-injection plane for detector-side components (metadata
    /// table, backing UVM region, race-report channel). Disabled by
    /// default; a disabled plane draws nothing and changes nothing.
    pub faults: FaultConfig,
    /// Static pre-analysis pruning (hybrid static/dynamic detection,
    /// DESIGN.md §13). `Off` by default — no kernel is analyzed.
    pub prune: PruneMode,
}

impl Default for IguardConfig {
    fn default() -> Self {
        IguardConfig {
            coalescing: true,
            backoff: true,
            addr_scale: 1,
            history_depth: 1,
            its_support: true,
            report_capacity: 16 * 1024,
            table_capacity_words: None,
            faults: FaultConfig::disabled(),
            prune: PruneMode::Off,
        }
    }
}

impl IguardConfig {
    /// The §6.5-ablation baseline: both contention optimizations off.
    #[must_use]
    pub fn without_contention_opts() -> Self {
        IguardConfig {
            coalescing: false,
            backoff: false,
            ..IguardConfig::default()
        }
    }

    /// Variant remembering the last `n` accessors per location (§6.7).
    #[must_use]
    pub fn with_history(n: usize) -> Self {
        IguardConfig {
            history_depth: n.max(1),
            ..IguardConfig::default()
        }
    }

    /// A ScoRD-like detector: same scoped-race logic, no ITS support.
    #[must_use]
    pub fn scord_like() -> Self {
        IguardConfig {
            its_support: false,
            ..IguardConfig::default()
        }
    }

    /// Hybrid static/dynamic detection: skip callbacks at provably-safe
    /// points (DESIGN.md §13).
    #[must_use]
    pub fn with_prune() -> Self {
        IguardConfig {
            prune: PruneMode::On,
            ..IguardConfig::default()
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_both_optimizations() {
        let c = IguardConfig::default();
        assert!(c.coalescing && c.backoff);
        assert_eq!(c.history_depth, 1);
    }

    #[test]
    fn ablation_config_disables_optimizations() {
        let c = IguardConfig::without_contention_opts();
        assert!(!c.coalescing && !c.backoff);
    }

    #[test]
    fn history_is_at_least_one() {
        assert_eq!(IguardConfig::with_history(0).history_depth, 1);
        assert_eq!(IguardConfig::with_history(8).history_depth, 8);
    }
}
