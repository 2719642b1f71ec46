//! Deterministic cycle accounting.
//!
//! The reproduction cannot measure wall-clock GPU time, so every experiment
//! in the paper's evaluation is regenerated from a first-order cycle model:
//! each dynamically executed instruction charges a cost, and charges are
//! split into two pools:
//!
//! - **parallel work** is divided by the launch's effective warp-level
//!   parallelism (a GPU hides it across SMs and warp schedulers);
//! - **serial work** is on the critical path no matter how wide the GPU is —
//!   contended metadata locks inside the detector, and Barracuda's
//!   ship-to-CPU channel, charge here. This is the mechanism behind the
//!   paper's headline 15× iGUARD-vs-Barracuda gap and behind Figure 12.
//!
//! Charges carry a [`CostCategory`] so that Figure 13's runtime breakdown
//! (Native / NVBit / Setup / Instrumentation / Detection / Misc) falls out
//! of the same accounting.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Cost buckets matching Figure 13 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostCategory {
    /// Application work: what the kernel costs with no tool attached.
    Native,
    /// Binary analysis / injection time of the instrumentation framework.
    Nvbit,
    /// Detector metadata allocation + initialization (prefault).
    Setup,
    /// Callback dispatch overhead added to each instrumented instruction.
    Instrumentation,
    /// Metadata lookup, race checks, and metadata-lock serialization.
    Detection,
    /// Everything else (kernel load, report draining, ...).
    Misc,
}

/// All categories, in Figure 13 order.
pub const COST_CATEGORIES: [CostCategory; 6] = [
    CostCategory::Native,
    CostCategory::Nvbit,
    CostCategory::Setup,
    CostCategory::Instrumentation,
    CostCategory::Detection,
    CostCategory::Misc,
];

const NUM_CATEGORIES: usize = 6;

fn index(c: CostCategory) -> usize {
    match c {
        CostCategory::Native => 0,
        CostCategory::Nvbit => 1,
        CostCategory::Setup => 2,
        CostCategory::Instrumentation => 3,
        CostCategory::Detection => 4,
        CostCategory::Misc => 5,
    }
}

/// Per-instruction cycle costs.
///
/// The only constant carried over from a *measurement in the paper* is the
/// 21× block-vs-device fence ratio (§1); everything else is an engineering
/// estimate at the right order of magnitude. Overheads in the evaluation are
/// ratios, so only relative magnitudes matter.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub alu: u64,
    pub branch: u64,
    pub ld_global: u64,
    pub st_global: u64,
    pub ld_shared: u64,
    pub st_shared: u64,
    pub atom_block: u64,
    pub atom_device: u64,
    /// `__threadfence_block()`.
    pub membar_block: u64,
    /// `__threadfence()`; 21× the block fence, the paper's measured ratio.
    pub membar_device: u64,
    pub bar_sync: u64,
    pub bar_warp: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            branch: 1,
            ld_global: 12,
            st_global: 12,
            ld_shared: 2,
            st_shared: 2,
            atom_block: 8,
            atom_device: 24,
            membar_block: 20,
            membar_device: 420,
            bar_sync: 30,
            bar_warp: 4,
        }
    }
}

/// Accumulates parallel and serial cycle charges per category.
#[derive(Debug, Clone)]
pub struct Clock {
    parallel: [u64; NUM_CATEGORIES],
    serial: [u64; NUM_CATEGORIES],
    /// Warp-level parallelism the parallel pool is divided by; set per
    /// launch from grid size and SM count.
    eff_parallelism: f64,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// A clock with parallelism 1 (set properly at each launch).
    #[must_use]
    pub fn new() -> Self {
        Clock {
            parallel: [0; NUM_CATEGORIES],
            serial: [0; NUM_CATEGORIES],
            eff_parallelism: 1.0,
        }
    }

    /// Sets the effective parallelism used to amortize parallel charges,
    /// clamped to at least 1 (`f64::max` also absorbs a NaN).
    pub fn set_parallelism(&mut self, p: f64) {
        self.eff_parallelism = p.max(1.0);
    }

    /// Current effective parallelism.
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        self.eff_parallelism
    }

    /// Charges `cycles` of parallelizable work.
    pub fn charge(&mut self, cat: CostCategory, cycles: u64) {
        self.parallel[index(cat)] += cycles;
    }

    /// Charges `cycles` of critical-path (unparallelizable) work.
    pub fn charge_serial(&mut self, cat: CostCategory, cycles: u64) {
        self.serial[index(cat)] += cycles;
    }

    /// Simulated time contributed by one category.
    #[must_use]
    pub fn time(&self, cat: CostCategory) -> f64 {
        let i = index(cat);
        self.parallel[i] as f64 / self.eff_parallelism + self.serial[i] as f64
    }

    /// Total simulated time across all categories.
    #[must_use]
    pub fn total_time(&self) -> f64 {
        COST_CATEGORIES.iter().map(|&c| self.time(c)).sum()
    }

    /// Raw (parallel, serial) cycles for one category, for diagnostics.
    #[must_use]
    pub fn raw(&self, cat: CostCategory) -> (u64, u64) {
        let i = index(cat);
        (self.parallel[i], self.serial[i])
    }

    /// Clears all charges, keeping the parallelism.
    pub fn reset(&mut self) {
        self.parallel = [0; NUM_CATEGORIES];
        self.serial = [0; NUM_CATEGORIES];
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fence_ratio_is_21x() {
        let c = CostModel::default();
        assert_eq!(c.membar_device / c.membar_block, 21);
    }

    #[test]
    fn parallel_charges_are_amortized() {
        let mut clk = Clock::new();
        clk.set_parallelism(10.0);
        clk.charge(CostCategory::Native, 100);
        assert!((clk.time(CostCategory::Native) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn serial_charges_are_not_amortized() {
        let mut clk = Clock::new();
        clk.set_parallelism(1000.0);
        clk.charge_serial(CostCategory::Detection, 100);
        assert!((clk.time(CostCategory::Detection) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn total_sums_categories() {
        let mut clk = Clock::new();
        clk.charge(CostCategory::Native, 50);
        clk.charge_serial(CostCategory::Misc, 7);
        assert!((clk.total_time() - 57.0).abs() < 1e-9);
    }

    #[test]
    fn reset_keeps_parallelism() {
        let mut clk = Clock::new();
        clk.set_parallelism(4.0);
        clk.charge(CostCategory::Native, 8);
        clk.reset();
        assert_eq!(clk.total_time(), 0.0);
        assert_eq!(clk.parallelism(), 4.0);
    }

    #[test]
    fn parallelism_below_one_is_clamped() {
        let mut clk = Clock::new();
        for p in [0.5, 0.0, -3.0, f64::NAN] {
            clk.set_parallelism(p);
            assert_eq!(clk.parallelism(), 1.0);
        }
    }
}
