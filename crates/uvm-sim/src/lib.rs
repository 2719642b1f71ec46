//! # uvm-sim: Unified Virtual Memory for the iGUARD reproduction
//!
//! iGUARD allocates its ~4× memory metadata with `cudaMallocManaged` so that
//! **no device memory is pinned** (§6.1 "Allocating metadata"): virtual
//! pages are materialized on the GPU by demand faults, migrated back to the
//! host under pressure, and — when free device memory permits — *prefaulted*
//! at setup time so the hot path never faults. Figure 14 of the paper is
//! entirely a property of this mechanism: iGUARD degrades gracefully as the
//! application footprint grows, while Barracuda's reserve-up-front policy
//! runs out of memory.
//!
//! This crate simulates exactly that: a managed virtual allocation with a
//! page residency set bounded by available device bytes, FIFO eviction, and
//! cycle charges for faults, migrations, and prefault initialization. It
//! stores no data — the *functional* metadata lives in the detector; this
//! models where the pages live and what touching them costs.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::fmt;

use faults::{FaultInjector, FaultSite, FaultStats};

/// A structurally invalid UVM request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UvmError {
    /// The migration granularity must be at least one byte.
    ZeroPageSize,
    /// A touch beyond the virtual allocation — unmapped managed memory.
    OutOfRange { offset: u64, len_bytes: u64 },
}

impl fmt::Display for UvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UvmError::ZeroPageSize => write!(f, "UVM page size must be positive"),
            UvmError::OutOfRange { offset, len_bytes } => {
                write!(f, "touch at {offset} beyond region of {len_bytes} B")
            }
        }
    }
}

impl std::error::Error for UvmError {}

/// Cost parameters of the simulated UVM driver (cycles).
#[derive(Debug, Clone)]
pub struct UvmConfig {
    /// Migration granularity. Real UVM migrates in 64 KiB–2 MiB blocks; we
    /// use 2 MiB, the large-page size the driver prefers for streaming.
    pub page_bytes: u64,
    /// GPU page-fault service cost (fault + map + copy) per page.
    pub fault_cost: u64,
    /// Additional cost when servicing a fault requires evicting a victim
    /// page back to the host first (memory oversubscription).
    pub evict_cost: u64,
    /// Per-page cost of prefaulting via `cudaMemset` at setup — batched and
    /// pipelined, so much cheaper than a demand fault.
    pub prefault_cost: u64,
}

impl Default for UvmConfig {
    fn default() -> Self {
        UvmConfig {
            page_bytes: 2 << 20,
            fault_cost: 60,
            evict_cost: 90,
            prefault_cost: 3,
        }
    }
}

/// Outcome of touching one address of a managed allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// Page already resident on the device: free.
    Hit,
    /// Page faulted in; carries the cycle cost charged.
    Fault { cycles: u64 },
}

impl Touch {
    /// Cycles this touch cost.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            Touch::Hit => 0,
            Touch::Fault { cycles } => *cycles,
        }
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UvmStats {
    /// Demand faults serviced.
    pub faults: u64,
    /// Faults that additionally evicted a victim page.
    pub evictions: u64,
    /// Pages prefaulted at setup.
    pub prefaulted_pages: u64,
    /// Total cycles charged for faults + evictions.
    pub fault_cycles: u64,
    /// Total cycles charged for prefaulting.
    pub prefault_cycles: u64,
    /// Injected eviction storms: resident pages stolen behind the
    /// detector's back by the fault plane (not counted in `evictions`).
    pub injected_evictions: u64,
    /// Injected device-OOM denials: prefault passes cut short by the
    /// fault plane.
    pub injected_oom_denials: u64,
    /// Cycles charged for injected faults (kept separate from
    /// `fault_cycles` so the zero-fault cost model is untouched).
    pub injected_cycles: u64,
}

/// One `cudaMallocManaged` region with demand-paged device residency.
///
/// Residency is bounded by `device_budget_bytes`: the device memory left
/// over after the application's own allocations. Exceeding it triggers
/// FIFO eviction — the graceful-degradation regime of Figure 14.
#[derive(Debug)]
pub struct ManagedRegion {
    cfg: UvmConfig,
    len_bytes: u64,
    /// `log2(page_bytes)` when the page size is a power of two (every
    /// real UVM granularity is), so the per-touch page index is a shift.
    page_shift: Option<u32>,
    device_budget_pages: u64,
    /// Residency bitmap indexed by page, grown lazily to the touched
    /// high-water page. A flat flag per page replaces the old
    /// `HashSet<u64>` — the residency check runs on every metadata
    /// access, and page indices are small (region bytes / 2 MiB).
    resident: Vec<bool>,
    resident_count: u64,
    fifo: VecDeque<u64>,
    stats: UvmStats,
    faults: FaultInjector,
}

impl ManagedRegion {
    /// Allocates `len_bytes` of *virtual* space. Nothing is resident yet,
    /// exactly like `cudaMallocManaged` (§6.1: "it only allocates virtual
    /// addresses").
    pub fn new(
        cfg: UvmConfig,
        len_bytes: u64,
        device_budget_bytes: u64,
    ) -> Result<Self, UvmError> {
        if cfg.page_bytes == 0 {
            return Err(UvmError::ZeroPageSize);
        }
        let device_budget_pages = device_budget_bytes / cfg.page_bytes;
        Ok(ManagedRegion {
            page_shift: cfg
                .page_bytes
                .is_power_of_two()
                .then(|| cfg.page_bytes.trailing_zeros()),
            cfg,
            len_bytes,
            device_budget_pages,
            resident: Vec::new(),
            resident_count: 0,
            fifo: VecDeque::new(),
            stats: UvmStats::default(),
            faults: FaultInjector::disabled(),
        })
    }

    /// Attaches a fault injector (replacing the default disabled one).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Injected-fault counters for this region.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    #[inline]
    fn is_resident(&self, page: u64) -> bool {
        self.resident.get(page as usize).copied().unwrap_or(false)
    }

    #[inline]
    fn set_resident(&mut self, page: u64) {
        let p = page as usize;
        if p >= self.resident.len() {
            self.resident.resize(p + 1, false);
        }
        self.resident[p] = true;
        self.resident_count += 1;
    }

    /// Virtual length of the region.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Total pages spanned by the region.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.len_bytes.div_ceil(self.cfg.page_bytes)
    }

    /// Pages currently resident on the device.
    #[must_use]
    pub fn resident_pages(&self) -> u64 {
        self.resident_count
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> UvmStats {
        self.stats
    }

    /// Prefaults up to `max_bytes` of the region onto the device (the
    /// `cudaMemset` warm-up iGUARD performs when free memory allows).
    /// Returns the cycle cost to charge as *setup* time.
    pub fn prefault(&mut self, max_bytes: u64) -> u64 {
        let want = max_bytes.min(self.len_bytes).div_ceil(self.cfg.page_bytes);
        let mut cycles = 0;
        for page in 0..want {
            if self.resident_count >= self.device_budget_pages {
                break;
            }
            if self.faults.enabled() && self.faults.fire(FaultSite::UvmDeviceOom) {
                // Device memory ran out under the allocator's feet: the
                // remaining pages stay host-resident and will demand-fault.
                self.stats.injected_oom_denials += 1;
                break;
            }
            if !self.is_resident(page) {
                self.set_resident(page);
                self.fifo.push_back(page);
                self.stats.prefaulted_pages += 1;
                cycles += self.cfg.prefault_cost;
            }
        }
        self.stats.prefault_cycles += cycles;
        cycles
    }

    #[inline]
    fn page_of(&self, offset: u64) -> u64 {
        match self.page_shift {
            Some(shift) => offset >> shift,
            None => offset / self.cfg.page_bytes,
        }
    }

    /// Whether touches anywhere in `first..=last` would now all be plain
    /// hits: the span is mapped, its pages resident, no fault plane armed.
    /// A hit moves nothing — eviction is FIFO, so a page's place in the
    /// queue does not depend on being touched, and no counter records
    /// hits — so one `true` stands for any number of such touches.
    #[inline]
    #[must_use]
    pub fn span_resident(&self, first: u64, last: u64) -> bool {
        !self.faults.enabled()
            && last < self.len_bytes
            && (self.page_of(first)..=self.page_of(last)).all(|p| self.is_resident(p))
    }

    /// Touches `offset` (a byte offset into the region), faulting the page
    /// in if necessary; an offset beyond the allocation — unmapped managed
    /// memory, a tool bug — is a typed error. The resident hit — all a
    /// detector pays per metadata access once its pages are in — is inlined
    /// into the caller; faults and injected storms are serviced out of line.
    #[inline]
    pub fn try_touch(&mut self, offset: u64) -> Result<Touch, UvmError> {
        if offset >= self.len_bytes {
            return Err(UvmError::OutOfRange {
                offset,
                len_bytes: self.len_bytes,
            });
        }
        let page = self.page_of(offset);
        if self.is_resident(page) && !self.faults.enabled() {
            return Ok(Touch::Hit);
        }
        Ok(self.touch_slow(page))
    }

    /// A touch that is not a plain resident hit: a resident page under an
    /// armed fault plane (which may steal it), or a demand fault.
    fn touch_slow(&mut self, page: u64) -> Touch {
        if self.is_resident(page) {
            if self.faults.fire(FaultSite::UvmEvictStorm) {
                // An eviction storm stole the page behind our back: pay a
                // re-migration (fault + evict) without disturbing the
                // zero-fault residency bookkeeping.
                let cycles = self.cfg.fault_cost + self.cfg.evict_cost;
                self.stats.injected_evictions += 1;
                self.stats.injected_cycles += cycles;
                return Touch::Fault { cycles };
            }
            return Touch::Hit;
        }
        let mut cycles = self.cfg.fault_cost;
        self.stats.faults += 1;
        if self.resident_count >= self.device_budget_pages {
            self.stats.evictions += 1;
            cycles += self.cfg.evict_cost;
            let Some(victim) = self.fifo.pop_front() else {
                // Nothing fits on-device (a zero budget; a full resident
                // set with no page queued for eviction degrades the same
                // way): every touch is a remote access and the page never
                // becomes resident (pathological oversubscription).
                self.stats.fault_cycles += cycles;
                return Touch::Fault { cycles };
            };
            self.resident[victim as usize] = false;
            self.resident_count -= 1;
        }
        self.set_resident(page);
        self.fifo.push_back(page);
        self.stats.fault_cycles += cycles;
        Touch::Fault { cycles }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A touch the test knows is inside the region.
    fn touch(r: &mut ManagedRegion, offset: u64) -> Touch {
        r.try_touch(offset).expect("offset inside the region")
    }

    fn cfg() -> UvmConfig {
        UvmConfig {
            page_bytes: 4096,
            fault_cost: 100,
            evict_cost: 150,
            prefault_cost: 10,
        }
    }

    #[test]
    fn allocation_is_virtual_only() {
        let r = ManagedRegion::new(cfg(), 1 << 20, 1 << 20).unwrap();
        assert_eq!(r.resident_pages(), 0);
        assert_eq!(r.total_pages(), 256);
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 1 << 20).unwrap();
        assert_eq!(touch(&mut r, 0), Touch::Fault { cycles: 100 });
        assert_eq!(touch(&mut r, 8), Touch::Hit);
        assert_eq!(touch(&mut r, 4095), Touch::Hit);
        assert_eq!(touch(&mut r, 4096), Touch::Fault { cycles: 100 });
        assert_eq!(r.stats().faults, 2);
    }

    #[test]
    fn prefault_makes_touches_free() {
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 1 << 20).unwrap();
        let setup = r.prefault(u64::MAX);
        assert_eq!(setup, 256 * 10);
        assert_eq!(r.stats().prefaulted_pages, 256);
        for page in 0..256u64 {
            assert_eq!(touch(&mut r, page * 4096), Touch::Hit);
        }
        assert_eq!(r.stats().faults, 0);
    }

    #[test]
    fn prefault_is_bounded_by_device_budget() {
        // Budget of 8 pages; region of 256 pages.
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 8 * 4096).unwrap();
        r.prefault(u64::MAX);
        assert_eq!(r.resident_pages(), 8);
    }

    #[test]
    fn oversubscription_evicts_fifo() {
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 2 * 4096).unwrap();
        assert!(matches!(touch(&mut r, 0), Touch::Fault { cycles: 100 }));
        assert!(matches!(touch(&mut r, 4096), Touch::Fault { cycles: 100 }));
        // Third page evicts page 0 (FIFO): fault + evict cost.
        assert_eq!(touch(&mut r, 2 * 4096), Touch::Fault { cycles: 250 });
        assert_eq!(r.stats().evictions, 1);
        // Page 0 must fault again (and evict page 1).
        assert_eq!(touch(&mut r, 0), Touch::Fault { cycles: 250 });
    }

    #[test]
    fn zero_budget_never_becomes_resident() {
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 0).unwrap();
        assert!(matches!(touch(&mut r, 0), Touch::Fault { .. }));
        assert!(matches!(touch(&mut r, 0), Touch::Fault { .. }));
        assert_eq!(r.resident_pages(), 0);
        assert_eq!(r.stats().evictions, 2);
    }

    #[test]
    fn full_resident_set_with_nothing_queued_degrades_to_remote_access() {
        // Not reachable through the public surface (every resident page
        // is queued); forced here so the branch that used to abort the
        // process is shown to charge and carry on.
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 2 * 4096).unwrap();
        let _ = touch(&mut r, 0);
        let _ = touch(&mut r, 4096);
        r.fifo.clear();
        for _ in 0..2 {
            assert_eq!(touch(&mut r, 2 * 4096), Touch::Fault { cycles: 250 });
        }
        assert_eq!(r.resident_pages(), 2, "nothing evicted, nothing admitted");
        assert_eq!(touch(&mut r, 0), Touch::Hit);
        let s = r.stats();
        assert_eq!((s.faults, s.evictions, s.fault_cycles), (4, 2, 700));
    }

    #[test]
    fn span_resident_is_what_touching_the_span_would_find() {
        let mut r = ManagedRegion::new(cfg(), 4 * 4096, 1 << 20).unwrap();
        let _ = touch(&mut r, 0);
        let _ = touch(&mut r, 4096);
        let before = r.stats();
        assert!(r.span_resident(8, 4096 + 8));
        assert!(!r.span_resident(4096, 2 * 4096), "third page not resident");
        assert!(!r.span_resident(0, 4 * 4096), "past the region");
        assert_eq!(r.stats(), before, "the query moves nothing");
        use faults::{FaultConfig, RATE_ONE};
        let fc = FaultConfig::disabled().with_rate(FaultSite::UvmEvictStorm, RATE_ONE);
        r.set_faults(FaultInjector::new(&fc, "test"));
        assert!(!r.span_resident(8, 16), "an armed plane may steal the page");
    }

    #[test]
    fn partial_prefault_respects_byte_limit() {
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 1 << 20).unwrap();
        r.prefault(10 * 4096);
        assert_eq!(r.resident_pages(), 10);
        assert_eq!(touch(&mut r, 0), Touch::Hit);
        assert!(matches!(touch(&mut r, 11 * 4096), Touch::Fault { .. }));
    }

    #[test]
    fn stats_accumulate_cycles() {
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 4096).unwrap();
        let _ = touch(&mut r, 0);
        let _ = touch(&mut r, 4096); // evicts
        let s = r.stats();
        assert_eq!(s.fault_cycles, 100 + 250);
        assert_eq!(s.faults, 2);
    }

    #[test]
    fn page_index_agrees_between_shift_and_division() {
        // 4096 takes the shift, 3000 the division: either way every
        // offset of a page lands on that page, so ten pages fault ten times.
        for page_bytes in [4096u64, 3000] {
            let cfg = UvmConfig {
                page_bytes,
                ..cfg()
            };
            let mut r = ManagedRegion::new(cfg, 10 * page_bytes, 1 << 20).unwrap();
            for off in (0..10 * page_bytes).step_by(500) {
                let _ = touch(&mut r, off);
            }
            assert_eq!(r.stats().faults, 10, "page_bytes {page_bytes}");
            assert_eq!(r.resident_pages(), 10);
        }
    }

    #[test]
    fn touch_cycles_accessor() {
        assert_eq!(Touch::Hit.cycles(), 0);
        assert_eq!(Touch::Fault { cycles: 7 }.cycles(), 7);
    }

    #[test]
    fn zero_page_size_is_a_typed_error() {
        let bad = UvmConfig {
            page_bytes: 0,
            ..cfg()
        };
        assert_eq!(
            ManagedRegion::new(bad, 1 << 20, 1 << 20).unwrap_err(),
            UvmError::ZeroPageSize
        );
    }

    #[test]
    fn try_touch_reports_out_of_range() {
        let mut r = ManagedRegion::new(cfg(), 4096, 1 << 20).unwrap();
        assert_eq!(
            r.try_touch(4096).unwrap_err(),
            UvmError::OutOfRange {
                offset: 4096,
                len_bytes: 4096
            }
        );
        assert!(r.try_touch(0).is_ok());
    }

    #[test]
    fn evict_storm_charges_without_disturbing_residency() {
        use faults::{FaultConfig, RATE_ONE};
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 1 << 20).unwrap();
        let _ = touch(&mut r, 0); // fault in page 0
        let fc = FaultConfig::disabled()
            .with_seed(5)
            .with_rate(FaultSite::UvmEvictStorm, RATE_ONE);
        r.set_faults(FaultInjector::new(&fc, "test"));
        // Every resident touch now pays a re-migration...
        assert_eq!(touch(&mut r, 0), Touch::Fault { cycles: 100 + 150 });
        let s = r.stats();
        assert_eq!(s.injected_evictions, 1);
        assert_eq!(s.injected_cycles, 250);
        // ...but the zero-fault counters and residency are untouched.
        assert_eq!((s.faults, s.evictions), (1, 0));
        assert_eq!(r.resident_pages(), 1);
        assert_eq!(r.fault_stats().get(FaultSite::UvmEvictStorm), 1);
    }

    #[test]
    fn injected_oom_cuts_prefault_short() {
        use faults::{FaultConfig, RATE_ONE};
        let mut r = ManagedRegion::new(cfg(), 1 << 20, 1 << 20).unwrap();
        let fc = FaultConfig::disabled()
            .with_seed(5)
            .with_rate(FaultSite::UvmDeviceOom, RATE_ONE);
        r.set_faults(FaultInjector::new(&fc, "test"));
        r.prefault(u64::MAX);
        let s = r.stats();
        assert_eq!(s.prefaulted_pages, 0);
        assert_eq!(s.injected_oom_denials, 1);
        // The denied pages demand-fault later instead.
        assert!(matches!(touch(&mut r, 0), Touch::Fault { .. }));
    }
}
