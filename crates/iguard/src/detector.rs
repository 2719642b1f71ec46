//! The iGUARD detector: an `nvbit-sim` tool that performs the entire race
//! detection "on the GPU" — i.e., inside the instrumentation callbacks,
//! in parallel with kernel execution, with no CPU-side analysis (§5).
//!
//! Per dynamic global-memory access it:
//! 1. runs lock inference on atomics (§6.3);
//! 2. opportunistically **coalesces** same-address loads/atomics of a warp
//!    split into one metadata operation (§6.5, optimization 1);
//! 3. touches the UVM-backed metadata entry (faults charge cycles, §6.1);
//! 4. charges metadata-lock **contention**, tamed by dynamically-adjusted
//!    exponential backoff (§6.5, optimization 2);
//! 5. updates shared flags, runs the two-tier P/R checks of Table 2, and
//!    writes back the metadata (§6.2, §6.4);
//! 6. reports races to the host buffer without stopping execution (§5).
//!
//! The table-keyed back half (steps 3–5) lives in the crate-private
//! `engine::Engine`; the detector owns one, over one metadata
//! table in one UVM-managed region (§5, §6.1). The live synchronization
//! metadata, lock state, counters and the report channel are the front
//! half, and every check runs in program order inside the callback.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::num::NonZeroUsize;

use faults::FaultStats;
use gpu_sim::hook::{AccessKind, LaneAccess, LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::ir::{AtomOp, Scope, Space};
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::channel::ChannelStats;
use nvbit_sim::Tool;

use crate::bitfield::AccessorInfo;
use crate::checks::AccessType;
use crate::config::IguardConfig;
use crate::engine::{Engine, EngineParams, LaneCtx, Sink, SplitCtx};
use crate::error::IguardError;
use crate::locks::WarpLockState;
use crate::metadata::{MetaStats, MetadataTable, TableConfig, ENTRY_BYTES};
use crate::prune::{PruneMode, PruneStats, Pruner};
use crate::report::{RaceRecord, RaceReporter, RaceSite};
use crate::syncmeta::SyncMetadata;

/// Parallel cycles per race check (metadata read, condition evaluation,
/// metadata write-back), one SIMD issue per warp split.
const CHECK_COST: u64 = 18;
/// Parallel cycles to acquire/release the per-entry metadata lock when
/// uncontended.
const MD_LOCK_COST: u64 = 4;
/// One-time serial cycles for allocating + registering metadata, charged
/// at first launch on top of any prefault.
const SETUP_FIXED_COST: u64 = 150;
/// Serial cycles per launch (kernel load, report drain).
const MISC_COST_PER_LAUNCH: u64 = 100;
/// Parallel cycles of the synchronization-metadata update per sync event.
const SYNC_COST: u64 = 4;

/// Aggregate detector counters for the evaluation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct IguardStats {
    /// Lane-level accesses actually processed (after coalescing).
    pub accesses: u64,
    /// Lane accesses skipped thanks to coalescing.
    pub coalesced_saved: u64,
    /// Hits per preliminary condition P1..P6.
    pub safe_hits: [u64; 6],
    /// Hits per detailed condition R1..R5.
    pub race_hits: [u64; 5],
    /// Accesses that found their metadata entry contended.
    pub contended_accesses: u64,
    /// Serial cycles charged for metadata-lock contention.
    pub contention_cycles: u64,
    /// Serial cycles charged for UVM faults on metadata pages.
    pub uvm_cycles: u64,
    /// Kernel launches observed.
    pub launches: u64,
    /// Accesses whose previous-accessor metadata was lost (capacity
    /// eviction or injected fault) before they could be checked. The
    /// access is still processed — as a first access — so detection
    /// degrades (possible missed race) instead of failing.
    pub missed_checks: u64,
    /// Events received while the detector had no live launch state
    /// (e.g. the metadata table failed to initialize). Dropped, counted.
    pub orphan_events: u64,
    /// Launches that could not allocate the metadata table; the detector
    /// keeps running blind (every access becomes an orphan event).
    pub table_init_failures: u64,
}

impl IguardStats {
    /// Field-wise sum, for aggregating detector instances (e.g. every job
    /// a service tenant ran). All counters are extensive quantities, so
    /// the sum is the exact stats a single detector would have reported
    /// had it processed the same work.
    pub fn accumulate(&mut self, other: &IguardStats) {
        // Exhaustive: a new counter is a compile error here, not a field
        // silently missing from every aggregate.
        let IguardStats {
            accesses,
            coalesced_saved,
            safe_hits,
            race_hits,
            contended_accesses,
            contention_cycles,
            uvm_cycles,
            launches,
            missed_checks,
            orphan_events,
            table_init_failures,
        } = *other;
        self.accesses += accesses;
        self.coalesced_saved += coalesced_saved;
        for (a, b) in self.safe_hits.iter_mut().zip(safe_hits) {
            *a += b;
        }
        for (a, b) in self.race_hits.iter_mut().zip(race_hits) {
            *a += b;
        }
        self.contended_accesses += contended_accesses;
        self.contention_cycles += contention_cycles;
        self.uvm_cycles += uvm_cycles;
        self.launches += launches;
        self.missed_checks += missed_checks;
        self.orphan_events += orphan_events;
        self.table_init_failures += table_init_failures;
    }
}

/// One-stop degradation summary: everything the detector gave up on,
/// with enough structure to prove each loss is accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Checks lost to metadata eviction/aliasing (see [`IguardStats`]).
    pub missed_checks: u64,
    /// Events dropped for lack of launch state.
    pub orphan_events: u64,
    /// Metadata-table allocation failures survived.
    pub table_init_failures: u64,
    /// Per-cause metadata-loss counters.
    pub meta: MetaStats,
    /// Race-report channel accounting (sent / drained / dropped).
    pub channel: ChannelStats,
    /// UVM evictions injected into the metadata region.
    pub uvm_injected_evictions: u64,
    /// Metadata prefaults denied by injected device OOM.
    pub uvm_injected_oom_denials: u64,
}

impl Degradation {
    /// True when every degradation is traceable to a counter: each
    /// metadata-entry loss produced exactly one missed check, and every
    /// record sent on the report channel was either drained or counted
    /// as dropped. The channel half only holds after a full drain
    /// ([`Iguard::races`]); call that first.
    #[must_use]
    pub fn fully_accounted(&self) -> bool {
        self.missed_checks == self.meta.total_evictions()
            && self.channel.sent == self.channel.drained + self.channel.dropped
    }

    /// Field-wise sum. Both `fully_accounted` equalities are preserved by
    /// summation (sums of per-instance equalities), so an aggregate over
    /// fully-drained detectors is fully accounted iff every summand is.
    pub fn accumulate(&mut self, other: &Degradation) {
        let Degradation {
            missed_checks,
            orphan_events,
            table_init_failures,
            meta,
            channel,
            uvm_injected_evictions,
            uvm_injected_oom_denials,
        } = *other;
        self.missed_checks += missed_checks;
        self.orphan_events += orphan_events;
        self.table_init_failures += table_init_failures;
        self.meta.accumulate(&meta);
        self.channel.accumulate(&channel);
        self.uvm_injected_evictions += uvm_injected_evictions;
        self.uvm_injected_oom_denials += uvm_injected_oom_denials;
    }
}

/// The iGUARD race detector.
#[derive(Debug)]
pub struct Iguard {
    cfg: IguardConfig,
    sync: Option<SyncMetadata>,
    locks: Vec<WarpLockState>,
    /// `None` until a launch allocates the metadata table (and still
    /// `None` if that allocation failed).
    engine: Option<Engine>,
    reporter: RaceReporter,
    stats: IguardStats,
    /// Reusable scratch for the lowest lane of each same-word group of a
    /// split, so the per-split hot path does not heap-allocate.
    scratch_reps: Vec<LaneAccess>,
    /// Reusable scratch for lock-inference (lane, addr) pairs.
    scratch_pairs: Vec<(u32, u32)>,
    /// Static-pruning plane (`None` when `cfg.prune` is `Off`, keeping the
    /// pruning-disabled detector byte-identical to the pre-pruning one).
    pruner: Option<Pruner>,
    /// Test seam: withholds the row from [`Iguard::process_split`], so every
    /// lane takes the per-lane path — the row-vs-lane tests' reference.
    #[cfg(test)]
    per_lane_only: bool,
}

impl Default for Iguard {
    fn default() -> Self {
        Self::new(IguardConfig::default())
    }
}

impl Iguard {
    /// Creates a detector with the given configuration.
    ///
    /// Infallible for ergonomics: a zero report capacity is clamped to 1.
    /// Use [`Iguard::try_new`] to surface configuration errors instead.
    #[must_use]
    pub fn new(cfg: IguardConfig) -> Self {
        let capacity = NonZeroUsize::new(cfg.report_capacity).unwrap_or(NonZeroUsize::MIN);
        let reporter = RaceReporter::with_capacity(capacity, &cfg.faults);
        Iguard::build(cfg, reporter)
    }

    /// Fallible [`Iguard::new`]: returns a typed error on an unusable
    /// configuration (e.g. a zero-capacity report buffer).
    pub fn try_new(cfg: IguardConfig) -> Result<Self, IguardError> {
        let reporter = RaceReporter::with_faults(cfg.report_capacity, &cfg.faults)?;
        Ok(Iguard::build(cfg, reporter))
    }

    fn build(cfg: IguardConfig, reporter: RaceReporter) -> Self {
        let pruner = (cfg.prune != PruneMode::Off).then(|| Pruner::new(cfg.prune));
        Iguard {
            cfg,
            sync: None,
            locks: Vec::new(),
            engine: None,
            reporter,
            stats: IguardStats::default(),
            scratch_reps: Vec::with_capacity(32),
            scratch_pairs: Vec::with_capacity(32),
            pruner,
            #[cfg(test)]
            per_lane_only: false,
        }
    }

    /// Detector counters.
    #[must_use]
    pub fn stats(&self) -> IguardStats {
        self.stats
    }

    /// Static-pruning counters (all-zero when pruning is off).
    #[must_use]
    pub fn prune_stats(&self) -> PruneStats {
        self.pruner.as_ref().map(Pruner::stats).unwrap_or_default()
    }

    /// Everything the detector degraded on, with per-cause accounting.
    #[must_use]
    pub fn degradation(&self) -> Degradation {
        let meta = self
            .table()
            .map(MetadataTable::meta_stats)
            .unwrap_or_default();
        let uvm = self.uvm_stats();
        Degradation {
            missed_checks: self.stats.missed_checks,
            orphan_events: self.stats.orphan_events,
            table_init_failures: self.stats.table_init_failures,
            meta,
            channel: self.reporter.channel_stats(),
            uvm_injected_evictions: uvm.injected_evictions,
            uvm_injected_oom_denials: uvm.injected_oom_denials,
        }
    }

    /// Aggregated injected-fault counters across the detector's
    /// components (metadata table, its UVM region, report channel).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = self.reporter.fault_stats();
        if let Some(table) = self.table() {
            total.accumulate(&table.fault_stats());
        }
        total
    }

    /// Race-report channel accounting.
    #[must_use]
    pub fn channel_stats(&self) -> ChannelStats {
        self.reporter.channel_stats()
    }

    /// UVM statistics of the metadata region (empty before first
    /// launch).
    #[must_use]
    pub fn uvm_stats(&self) -> uvm_sim::UvmStats {
        self.table()
            .map(MetadataTable::uvm_stats)
            .unwrap_or_default()
    }

    /// The metadata table, once a launch has allocated it.
    fn table(&self) -> Option<&MetadataTable> {
        self.engine.as_ref().map(|e| &e.table)
    }

    /// Number of unique races detected so far.
    #[must_use]
    pub fn unique_races(&self) -> usize {
        self.reporter.unique_races()
    }

    /// Dynamic race occurrences (before deduplication).
    #[must_use]
    pub fn dynamic_races(&self) -> u64 {
        self.reporter.dynamic_races
    }

    /// Drains all shipped race reports.
    pub fn races(&mut self) -> Vec<RaceRecord> {
        self.reporter.drain()
    }

    /// Drains reports grouped into distinct sites (the Table 4 unit).
    pub fn race_sites(&mut self) -> Vec<RaceSite> {
        let records = self.reporter.drain();
        crate::report::group_sites(&records)
    }

    /// The front half of one warp split (or of the lanes that stand for
    /// the word groups of a coalesced one): orphan accounting, one capture
    /// of the live state the lanes share (synchronization counters, lock
    /// state, the pruner's verify handle, the sink), then the split handed
    /// to the engine whole when it is a `row` the engine takes, else lane
    /// by lane; the engine runs the check and reports immediately.
    fn process_split(
        &mut self,
        lanes: &[LaneAccess],
        row: bool,
        kind: AccessType,
        access: &MemAccess<'_>,
        clock: &mut Clock,
        verify_safe: bool,
    ) {
        #[cfg(test)]
        let row = row && !self.per_lane_only;
        let warp = access.global_warp;
        // Graceful degradation: accesses with no live launch state (table
        // allocation failed, or the event arrived before any launch) are
        // dropped and counted instead of panicking.
        let (Some(sync), Some(locks), Some(engine)) = (
            self.sync.as_ref(),
            self.locks.get(warp as usize),
            self.engine.as_mut(),
        ) else {
            self.stats.orphan_events += lanes.len() as u64;
            return;
        };
        self.stats.accesses += lanes.len() as u64;
        // Verify-mode pruning: tag the accesses and hand the engine a
        // handle on the violation counter, charged if it reports a race.
        let verify = match &mut self.pruner {
            Some(p) if verify_safe => {
                p.count_pruned_accesses(lanes.len() as u64);
                Some(p.verify_violations_mut())
            }
            _ => None,
        };

        let split = SplitCtx::new(access, kind);
        let blk_bar = sync.blk_bar(warp / sync.warps_per_block().max(1));
        // The snapshot bits every lane of the split shares.
        let split_snap = AccessorInfo {
            warp_id: warp,
            blk_bar,
            warp_bar: sync.warp_bar(warp),
            ..AccessorInfo::default()
        }
        .pack();
        let (dev_fences, blk_fences) = sync.warp_fences(warp);
        // Until `isThread` escalates every lane holds the warp's locks.
        let warp_locks = (!locks.is_thread()).then(|| locks.summary(0));
        let mut sink = Sink {
            stats: &mut self.stats,
            reporter: &mut self.reporter,
            clock,
            verify,
        };
        let lane_ctx = |la: &LaneAccess| LaneCtx {
            word: la.addr / 4,
            addr: la.addr,
            snap: split_snap
                | AccessorInfo {
                    lane: la.lane,
                    dev_fence: dev_fences[la.lane as usize],
                    blk_fence: blk_fences[la.lane as usize],
                    ..AccessorInfo::default()
                }
                .pack(),
            lock_summary: warp_locks.unwrap_or_else(|| locks.summary(la.lane)),
        };
        if row && engine.process_row(&split, lanes, lane_ctx, sync, &mut sink) {
            return;
        }
        for la in lanes {
            engine.process(&split, &lane_ctx(la), sync, &mut sink);
        }
    }

    /// First-launch allocation of the managed metadata region (~4× device
    /// capacity, §6.1), prefaulting what fits. On failure the detector
    /// keeps running blind: every access becomes an orphan event, and the
    /// next launch tries again.
    fn allocate_engine(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        let Ok(mut table) = MetadataTable::new(TableConfig {
            words: info.backing_words,
            uvm: self.cfg.uvm.clone(),
            virtual_bytes: 4 * info.device_capacity_bytes,
            device_budget_bytes: info.free_device_bytes,
            addr_scale: self.cfg.addr_scale,
            capacity_words: self.cfg.table_capacity_words,
            faults: self.cfg.faults.clone(),
        }) else {
            self.stats.table_init_failures += 1;
            return;
        };
        let mut setup = SETUP_FIXED_COST;
        if self.cfg.prefault {
            // Metadata is 4x the data it shadows (Sec 6.1); prefault as
            // much of it as free device memory allows.
            let needed = info.app_footprint_bytes.saturating_mul(4);
            setup += table.prefault(needed.max(ENTRY_BYTES));
        }
        self.engine = Some(Engine::new(table));
        clock.charge_serial(CostCategory::Setup, setup);
    }
}

impl Tool for Iguard {
    fn wants_at(&mut self, kernel: &gpu_sim::kernel::Kernel, pc: usize) -> bool {
        let instr = &kernel.code[pc];
        match &mut self.pruner {
            // Pruning gates global-memory callbacks only; sync events keep
            // the synchronization metadata warm even for pruned kernels.
            Some(p) if instr.is_global_access() => p.wants_mem(kernel, pc),
            _ => instr.is_global_access() || instr.is_sync(),
        }
    }

    fn body_sensitive(&self) -> bool {
        // A pruned bitmap is a verdict about a kernel *body*; two
        // same-named kernels with different bodies must not share one.
        self.pruner.is_some()
    }

    fn at_launch(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        self.stats.launches += 1;
        // Scheduler-step window within which two accesses to the same
        // entry count as concurrent: scales with the launch's warp count.
        let window = 64.max(u64::from(info.total_warps));
        self.sync = Some(SyncMetadata::new(info.grid_dim, info.warps_per_block));
        self.locks.clear();
        self.locks
            .resize(info.total_warps as usize, WarpLockState::default());

        match &mut self.engine {
            Some(e) => e.table.begin_epoch(),
            None => self.allocate_engine(info, clock),
        }
        if let Some(e) = &mut self.engine {
            let params = EngineParams {
                backoff: self.cfg.backoff,
                its_support: self.cfg.its_support,
                history_depth: self.cfg.history_depth,
            };
            e.begin_launch(info.backing_words, info.total_warps, window, params);
        }
        clock.charge_serial(CostCategory::Misc, MISC_COST_PER_LAUNCH);
    }

    fn on_mem(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        // iGUARD proper watches global memory only (§4: scratchpad races
        // are prior tools' domain; see `crate::scratchpad` for that
        // extension).
        if access.space != Space::Global {
            return;
        }
        self.on_global_mem(access, clock);
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, clock: &mut Clock) {
        clock.charge(CostCategory::Detection, SYNC_COST);
        match event {
            SyncEvent::BlockBarrier { block_id } => {
                if let Some(s) = self.sync.as_mut() {
                    s.block_barrier(*block_id);
                }
            }
            SyncEvent::WarpBarrier { global_warp, .. } => {
                if let Some(s) = self.sync.as_mut() {
                    s.warp_barrier(*global_warp);
                }
            }
            SyncEvent::Fence {
                scope,
                global_warp,
                tids,
                ..
            } => {
                let Some(sync) = self.sync.as_mut() else {
                    self.stats.orphan_events += 1;
                    return;
                };
                for &(lane, _tid) in tids.iter() {
                    sync.fence(*scope, *global_warp, lane);
                }
                if let Some(wl) = self.locks.get_mut(*global_warp as usize) {
                    wl.on_fence(tids.iter().map(|&(lane, _)| lane), *scope);
                }
            }
        }
    }
}

impl Iguard {
    /// The global-memory half of [`Tool::on_mem`].
    fn on_global_mem(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        // Verify-mode pruning: decide once per split whether `On` mode
        // would have skipped this callback (constant per (kernel, pc)).
        let verify_safe = match &mut self.pruner {
            Some(p) => p.verify_would_prune(access.kernel, access.pc),
            None => false,
        };
        let kind = match access.kind {
            AccessKind::Load => AccessType::Load,
            // A volatile word store is hardware-atomic and L1-bypassing —
            // the publication half of a flag protocol. Classify it as a
            // relaxed device-scope atomic write so flag polling (covered
            // by the P6 extensions) does not manufacture races.
            AccessKind::Store if access.volatile => AccessType::Atomic { scope_block: false },
            AccessKind::Store => AccessType::Store,
            AccessKind::Atomic { op, scope } => {
                // Lock inference (§6.3) happens before race checking.
                if let (AtomOp::Cas | AtomOp::Exch, Some(wl)) =
                    (op, self.locks.get_mut(access.global_warp as usize))
                {
                    let pairs: &[(u32, u32)] = if let [l] = access.lanes {
                        // 1-lane split (the common case for lock CASes
                        // under ITS): skip the scratch fill entirely.
                        &[(l.lane, l.addr)]
                    } else {
                        // `scratch_pairs` keeps its capacity across splits
                        // and launches; 32 lanes always fit, so this never
                        // reallocates.
                        self.scratch_pairs.clear();
                        self.scratch_pairs
                            .extend(access.lanes.iter().map(|l| (l.lane, l.addr)));
                        &self.scratch_pairs
                    };
                    if op == AtomOp::Cas {
                        wl.on_cas(pairs, scope);
                    } else {
                        wl.on_exch(pairs, scope);
                    }
                }
                AccessType::Atomic {
                    scope_block: scope == Scope::Block,
                }
            }
        };

        // The injected check runs data-parallel across the split's lanes:
        // one SIMD issue worth of check + (uncontended) metadata lock.
        clock.charge(CostCategory::Detection, CHECK_COST + MD_LOCK_COST);

        // One scan for how the lanes sit on the metadata words: `row` —
        // `word − lane` constant, i.e. consecutive words (mask gaps
        // allowed); `ascending` — distinct, increasing (a unit-stride
        // split, the common shape: nothing to group, nothing serializes).
        let first = access.lanes[0];
        let offset = (first.addr / 4).wrapping_sub(first.lane);
        let (mut row, mut ascending) = (true, true);
        let mut prev = first.addr / 4;
        for l in &access.lanes[1..] {
            let word = l.addr / 4;
            row &= word.wrapping_sub(l.lane) == offset;
            ascending &= prev < word;
            prev = word;
        }
        if ascending {
            self.process_split(access.lanes, row, kind, access, clock, verify_safe);
            return;
        }
        // The lowest lane of each same-word group, in lane order, and
        // whether those lanes are a row among themselves.
        let mut reps = std::mem::take(&mut self.scratch_reps);
        reps.clear();
        let mut reps_row = true;
        for l in access.lanes {
            if !reps.iter().any(|r| r.addr / 4 == l.addr / 4) {
                reps_row &= (l.addr / 4).wrapping_sub(l.lane) == offset;
                reps.push(*l);
            }
        }
        let dup = (access.lanes.len() - reps.len()) as u64;
        if self.cfg.coalescing && !matches!(kind, AccessType::Store) {
            // §6.5 optimization 1: same-word loads/atomics of the active
            // lanes cannot race with each other — one lane checks for its
            // whole group, under the split's full active mask.
            self.stats.coalesced_saved += dup;
            self.process_split(&reps, reps_row, kind, access, clock, verify_safe);
        } else {
            // Lanes hitting the *same* metadata entry serialize on its
            // lock; lanes on distinct entries proceed in parallel. Charge
            // the intra-warp serialization coalescing exists to remove.
            let serial = dup * (CHECK_COST + MD_LOCK_COST);
            clock.charge(CostCategory::Detection, serial);
            self.process_split(access.lanes, false, kind, access, clock, verify_safe);
        }
        self.scratch_reps = reps;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use faults::{FaultConfig, FaultSite, RATE_ONE};
    use gpu_sim::asm::KernelBuilder;
    use gpu_sim::hook::ExecMode;
    use gpu_sim::kernel::Kernel;
    use gpu_sim::timing::COST_CATEGORIES;
    use proptest::prelude::*;

    use super::*;
    use crate::bitfield::{stored_lane, Flags, MetadataEntry};
    use crate::checks::{detailed, preliminary, CurrAccess, MdView, Safe};
    use crate::engine::{race_index, safe_index};
    use crate::locks::{bloom_bits, lock_hash};
    use crate::metadata::SLOT_PAGE;

    /// Two blocks of two warps; the current access is always by warp 1
    /// (block 0) — in the one-lane arm by lane 3.
    const WPB: u32 = 2;
    const TOTAL_WARPS: u32 = 4;
    const WARP: u32 = 1;
    const LANE: u32 = 3;
    const ADDR: u32 = 40;
    const PC: usize = 0;
    /// Stored identities, as (warp, lanes above the accessing lane): same
    /// thread, same warp other lane, same block other warp (same lane
    /// number), other block.
    const IDENTITIES: [(u32, u32); 4] = [(WARP, 0), (WARP, 2), (0, 0), (2, 0)];
    /// Lock variables whose Bloom summaries are disjoint (asserted below).
    const LOCK_ADDRS: [Option<u32>; 3] = [None, Some(0x100), Some(0x204)];
    const KINDS: [(AccessKind, bool); 5] = [
        (AccessKind::Load, false),
        (AccessKind::Store, false),
        (AccessKind::Store, true),
        (
            AccessKind::Atomic {
                op: AtomOp::Add,
                scope: Scope::Device,
            },
            false,
        ),
        (
            AccessKind::Atomic {
                op: AtomOp::Add,
                scope: Scope::Block,
            },
            false,
        ),
    ];

    fn summary_of(lock: Option<u32>) -> u16 {
        lock.map_or(0, |addr| bloom_bits(lock_hash(addr)))
    }

    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("one_word");
        let base = b.param(0);
        let _ = b.ld(base, 0);
        b.build()
    }

    fn launch_info() -> LaunchInfo {
        LaunchInfo {
            kernel_name: "one_word".into(),
            grid_dim: TOTAL_WARPS / WPB,
            block_dim: WPB * 32,
            warps_per_block: WPB,
            total_threads: TOTAL_WARPS * 32,
            total_warps: TOTAL_WARPS,
            mode: ExecMode::Its,
            num_sms: 1,
            free_device_bytes: 1 << 30,
            app_footprint_bytes: 1 << 10,
            device_capacity_bytes: 1 << 30,
            backing_words: 64,
            code_len: 2,
            params: vec![0],
        }
    }

    /// The lane whose access is checked, and the split it arrives in.
    #[derive(Debug, Clone, Copy)]
    struct Who {
        lane: u32,
        addr: u32,
        active_mask: u32,
    }

    const ONE_LANE: Who = Who {
        lane: LANE,
        addr: ADDR,
        active_mask: 1 << LANE,
    };

    fn mem_access<'a>(
        k: &'a Kernel,
        (kind, volatile): (AccessKind, bool),
        warp: u32,
        lanes: &'a [LaneAccess],
        step: u64,
    ) -> MemAccess<'a> {
        MemAccess {
            kernel: k,
            pc: PC,
            kind,
            space: Space::Global,
            block_id: warp / WPB,
            warp_in_block: warp % WPB,
            global_warp: warp,
            active_mask: lanes.iter().fold(0, |m, l| m | 1 << l.lane),
            volatile,
            lanes,
            warps_per_block: WPB,
            sm: 0,
            step,
        }
    }

    /// The lanes of `mask`, lane `l` on word `word(l)`.
    fn lanes_of(warp: u32, mask: u32, word: impl Fn(u32) -> u32) -> Vec<LaneAccess> {
        (0..32)
            .filter(|lane| mask >> lane & 1 != 0)
            .map(|lane| LaneAccess {
                lane,
                tid_in_block: (warp % WPB) * 32 + lane,
                addr: word(lane) * 4,
            })
            .collect()
    }

    fn pools(clock: &Clock) -> [(u64, u64); 6] {
        COST_CATEGORIES.map(|c| clock.raw(c))
    }

    /// What one access did to one word.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        safe_slot: Option<usize>,
        race_slot: Option<usize>,
        words: (u64, u64),
        records: Vec<RaceRecord>,
    }

    /// The sequence the engine ran before it worked on packed words —
    /// decode, flag update, `preliminary`/`detailed`, field-wise
    /// write-back, encode — kept as the reference the early-outs and the
    /// masked write-back are pinned against.
    fn reference(
        det: &Iguard,
        k: &Kernel,
        (acc, wr): (u64, u64),
        (access_kind, volatile): (AccessKind, bool),
        who: Who,
    ) -> Outcome {
        let sync = det.sync.as_ref().unwrap();
        let kind = match access_kind {
            AccessKind::Load => AccessType::Load,
            AccessKind::Store if volatile => AccessType::Atomic { scope_block: false },
            AccessKind::Store => AccessType::Store,
            AccessKind::Atomic { scope, .. } => AccessType::Atomic {
                scope_block: scope == Scope::Block,
            },
        };
        let snap = sync.snapshot(WARP, who.lane);
        let locks = det.locks[WARP as usize].summary(who.lane);
        let block = WARP / WPB;
        let mut entry = MetadataEntry::unpack(acc, wr);
        let (mut race, mut records) = (None, Vec::new());
        let safe = if entry.flags.valid {
            if entry.accessor.block_id(WPB) != block {
                entry.flags.dev_shared = true;
            } else if entry.accessor.warp_id != WARP {
                entry.flags.blk_shared = true;
            }
            let info = if kind.is_write() {
                entry.accessor
            } else {
                entry.writer
            };
            let md = MdView {
                info,
                live_dev_fence: sync.dev_fence(info.warp_id, info.lane),
                live_blk_fence: sync.blk_fence(info.warp_id, info.lane),
            };
            let mut curr = CurrAccess {
                kind,
                warp_id: WARP,
                lane: who.lane,
                block_id: block,
                active_mask: who.active_mask,
                snap,
                locks,
            };
            if !det.cfg.its_support && info.warp_id == WARP {
                curr.active_mask |= 1 << info.lane;
            }
            let safe = preliminary(&entry, &md, &curr, WPB);
            if safe.is_none() {
                race = detailed(&entry, &md, &curr, WPB);
            }
            records.extend(race.map(|kind| RaceRecord {
                kernel: k.name.clone(),
                pc: PC,
                line: k.line(PC).map(str::to_owned),
                addr: who.addr,
                kind,
                access: curr.kind,
                warp: WARP,
                lane: who.lane,
                block,
                prev_warp: info.warp_id,
                prev_lane: info.lane,
            }));
            safe
        } else {
            Some(Safe::FirstAccess)
        };
        entry.flags.valid = true;
        entry.accessor = snap;
        if kind.is_write() {
            entry.writer = snap;
            entry.locks = locks;
            entry.flags.modified = true;
            (entry.flags.atomic, entry.flags.scope_block) = match kind {
                AccessType::Atomic { scope_block } => (true, scope_block),
                _ => (false, false),
            };
        }
        Outcome {
            safe_slot: safe.map(safe_index),
            race_slot: race.map(race_index),
            words: entry.pack(),
            records,
        }
    }

    /// The launched detector's metadata table.
    fn table_mut(det: &mut Iguard) -> &mut MetadataTable {
        &mut det.engine.as_mut().unwrap().table
    }

    /// Runs the access through `on_mem` and reads back what it did.
    fn observed(det: &mut Iguard, k: &Kernel, kind: (AccessKind, bool)) -> Outcome {
        let lanes = lanes_of(WARP, 1 << LANE, |_| ADDR / 4);
        let before = det.stats;
        det.reporter = RaceReporter::new(16).unwrap();
        det.on_mem(&mem_access(k, kind, WARP, &lanes, 1), &mut Clock::new());
        let moved = |now: &[u64], was: &[u64]| {
            let hits: Vec<usize> = (0..now.len()).filter(|&i| now[i] != was[i]).collect();
            assert!(hits.len() <= 1 && hits.iter().all(|&i| now[i] == was[i] + 1));
            hits.first().copied()
        };
        let loaded = table_mut(det).load(ADDR / 4);
        Outcome {
            safe_slot: moved(&det.stats.safe_hits, &before.safe_hits),
            race_slot: moved(&det.stats.race_hits, &before.race_hits),
            words: (loaded.acc, loaded.wr),
            records: det.races(),
        }
    }

    /// One stored state of the word: flag bits, accessor and writer
    /// identity, their counters (1 = the live ones, 0 = behind them), and
    /// the lock held by the last writer.
    type Stored = (u64, (u32, u32), (u32, u32), u8, Option<u32>);

    fn stored_states() -> impl Iterator<Item = Stored> {
        (0..64u64)
            .flat_map(|bits| IDENTITIES.map(|acc| (bits, acc)))
            .flat_map(|(bits, acc)| IDENTITIES.map(|wr| (bits, acc, wr)))
            .flat_map(|(bits, acc, wr)| [0u8, 1].map(|counter| (bits, acc, wr, counter)))
            .flat_map(|(bits, acc, wr, counter)| {
                LOCK_ADDRS.map(|lock| (bits, acc, wr, counter, lock))
            })
    }

    /// The raw words of a stored state as the access of `lane` finds it,
    /// or `None` when its Valid bit is clear: the table only ever holds
    /// entries with Valid set, so such a state is an untouched word.
    fn stored_words(
        (bits, accessor, writer, counter, lock): Stored,
        lane: u32,
    ) -> Option<(u64, u64)> {
        let info = |(warp_id, above): (u32, u32)| AccessorInfo {
            warp_id,
            lane: (lane + above) % 32,
            dev_fence: counter,
            blk_fence: counter,
            blk_bar: counter,
            warp_bar: counter,
        };
        let entry = MetadataEntry {
            tag: 0,
            flags: Flags {
                valid: bits & 1 != 0,
                modified: bits & 2 != 0,
                atomic: bits & 4 != 0,
                scope_block: bits & 8 != 0,
                dev_shared: bits & 16 != 0,
                blk_shared: bits & 32 != 0,
            },
            accessor: info(accessor),
            writer: info(writer),
            locks: summary_of(lock),
        };
        entry.flags.valid.then(|| entry.pack())
    }

    /// The row arm of the exhaustive comparison: whole splits of warp 1 —
    /// full, every other lane, ragged — on consecutive words, each word
    /// starting in its own stored state (over the rounds every state meets
    /// every kind and held lockset once per lane mask). The reference runs
    /// lane by lane in lane order; the detector must leave the same words,
    /// move every counter and clock pool as the sum does, and ship the
    /// same records in the same order. Returns the lanes compared.
    fn row_arm(det: &mut Iguard, k: &Kernel) -> u32 {
        const FIRST_WORD: u32 = 16;
        let states: Vec<Stored> = stored_states().collect();
        let mut compared = 0;
        for mask in [u32::MAX, 0x5555_5555, 0x0F0F_0F0F] {
            let lanes = lanes_of(WARP, mask, |lane| FIRST_WORD + lane);
            for (held, kind) in LOCK_ADDRS.iter().flat_map(|h| KINDS.map(|k| (*h, k))) {
                for round in 0..states.len() / 32 {
                    let mut wl = WarpLockState::default();
                    match held {
                        // One lane takes the lock: the warp's, so every
                        // lane's; or the even lanes take it together —
                        // `isThread`, and only they hold it.
                        Some(addr) if round % 2 == 0 => {
                            wl.on_cas(&[(0, addr)], Scope::Device);
                            wl.on_fence([0], Scope::Device);
                        }
                        Some(addr) => {
                            let pairs: Vec<(u32, u32)> =
                                (0..32).step_by(2).map(|l| (l, addr)).collect();
                            wl.on_cas(&pairs, Scope::Device);
                            wl.on_fence(pairs.iter().map(|p| p.0), Scope::Device);
                        }
                        None => {}
                    }
                    det.locks[WARP as usize] = wl;
                    table_mut(det).begin_epoch();
                    det.reporter = RaceReporter::new(64).unwrap();

                    let mut want_stats = det.stats;
                    want_stats.accesses += lanes.len() as u64;
                    let mut want_reporter = RaceReporter::new(64).unwrap();
                    let mut want_clock = Clock::new();
                    let per_split = CHECK_COST + MD_LOCK_COST;
                    want_clock.charge(CostCategory::Detection, per_split);
                    let mut want_words = Vec::new();
                    for la in &lanes {
                        // An odd multiplier walks the states in a scrambled
                        // order, so neighbouring words are unrelated.
                        let at = (round * 32 + la.lane as usize) * 1237 % states.len();
                        let words = stored_words(states[at], la.lane);
                        if let Some((acc, wr)) = words {
                            table_mut(det).store(la.addr / 4, acc, wr);
                        }
                        let who = Who {
                            lane: la.lane,
                            addr: la.addr,
                            active_mask: mask,
                        };
                        let want = reference(det, k, words.unwrap_or((0, 0)), kind, who);
                        want_stats.safe_hits[want.safe_slot.unwrap_or(0)] +=
                            u64::from(want.safe_slot.is_some());
                        want_stats.race_hits[want.race_slot.unwrap_or(0)] +=
                            u64::from(want.race_slot.is_some());
                        for record in want.records {
                            want_reporter.report(record, &mut want_clock);
                        }
                        want_words.push(want.words);
                    }

                    let mut clock = Clock::new();
                    det.on_mem(&mem_access(k, kind, WARP, &lanes, 1), &mut clock);
                    let got_words: Vec<(u64, u64)> = lanes
                        .iter()
                        .map(|la| table_mut(det).load(la.addr / 4))
                        .map(|l| (l.acc, l.wr))
                        .collect();
                    let case = format!("mask {mask:#x} held {held:?} kind {kind:?} round {round}");
                    assert_eq!(got_words, want_words, "{case}");
                    assert_eq!(
                        format!("{:?}", det.stats),
                        format!("{want_stats:?}"),
                        "{case}"
                    );
                    assert_eq!(pools(&clock), pools(&want_clock), "{case}");
                    assert_eq!(det.races(), want_reporter.drain(), "{case}");
                    compared += lanes.len() as u32;
                }
            }
        }
        compared
    }

    /// Every stored-flag combination × stored accessor and writer identity
    /// × stored counters × stored lockset × held lockset × access kind,
    /// with and without ITS support: the packed-word engine must hit the
    /// same `safe_hits`/`race_hits` slot, leave the same two words and
    /// ship the same record as the reference — one lane at a time, then
    /// ([`row_arm`]) a split at a time.
    #[test]
    fn packed_word_engine_matches_the_decoded_reference_exhaustively() {
        let [_, a, b] = LOCK_ADDRS.map(summary_of);
        assert!(
            a != 0 && b != 0 && a & b == 0,
            "lock summaries must be disjoint"
        );
        let k = kernel();
        let (mut cases, mut safe_seen, mut race_seen) = (0u32, [0u32; 6], [0u32; 5]);
        let mut row_lanes = 0;
        for its_support in [true, false] {
            let mut det = Iguard::new(IguardConfig {
                its_support,
                ..IguardConfig::default()
            });
            det.at_launch(&launch_info(), &mut Clock::new());
            // Live counters all at 1, so stored counters of 0 lie behind.
            let sync = det.sync.as_mut().unwrap();
            (0..TOTAL_WARPS / WPB).for_each(|blk| sync.block_barrier(blk));
            for warp in 0..TOTAL_WARPS {
                sync.warp_barrier(warp);
                for lane in 0..32 {
                    sync.fence(Scope::Device, warp, lane);
                    sync.fence(Scope::Block, warp, lane);
                }
            }
            for stored in stored_states() {
                for (held, kind) in LOCK_ADDRS.iter().flat_map(|h| KINDS.map(|k| (*h, k))) {
                    let mut wl = WarpLockState::default();
                    if let Some(addr) = held {
                        wl.on_cas(&[(LANE, addr)], Scope::Device);
                        wl.on_fence([LANE], Scope::Device);
                    }
                    det.locks[WARP as usize] = wl;
                    // A new epoch empties the word.
                    table_mut(&mut det).begin_epoch();
                    let words = stored_words(stored, LANE);
                    if let Some((acc, wr)) = words {
                        table_mut(&mut det).store(ADDR / 4, acc, wr);
                    }
                    let want = reference(&det, &k, words.unwrap_or((0, 0)), kind, ONE_LANE);
                    let got = observed(&mut det, &k, kind);
                    assert_eq!(
                        got, want,
                        "stored {stored:?} held {held:?} kind {kind:?} its {its_support}"
                    );
                    cases += 1;
                    if let Some(i) = got.safe_slot {
                        safe_seen[i] += 1;
                    }
                    if let Some(i) = got.race_slot {
                        race_seen[i] += 1;
                    }
                }
            }
            row_lanes += row_arm(&mut det, &k);
        }
        assert_eq!(cases, 2 * 64 * 4 * 4 * 2 * 3 * 3 * 5);
        assert_eq!(
            row_lanes,
            2 * (32 + 16 + 16) * 3 * 5 * (64 * 4 * 4 * 2 * 3 / 32)
        );
        assert!(
            safe_seen.iter().chain(&race_seen).all(|&n| n > 0),
            "every P and R condition must decide some case: {safe_seen:?} {race_seen:?}"
        );
    }

    /// One scripted event: (selector, warp, shape bits, steps since the
    /// previous event).
    type Event = (u8, u32, u32, u32);

    /// Drives a detector through a script: mostly warp splits over the
    /// last 64 words `info` shadows — rows (full, gapped, ragged, short;
    /// some starting so late they end at the last slot or run past it),
    /// stride-2, uniform, two-word and row-twice-over splits — with
    /// barriers, fences, lock CASes/exchanges and new launches in between.
    fn run_script(det: &mut Iguard, clock: &mut Clock, info: &LaunchInfo, script: &[Event]) {
        const MASKS: [u32; 4] = [u32::MAX, 0x5555_5555, 0x0F0F_0F0F, 0x0000_0FF0];
        let base = info.backing_words as u32 - 64;
        let k = kernel();
        let cas = |op| AccessKind::Atomic {
            op,
            scope: Scope::Device,
        };
        det.at_launch(info, clock);
        let mut step = 0;
        for &(selector, warp, bits, gap) in script {
            step += u64::from(gap);
            let tids: Vec<(u32, u32)> = lanes_of(warp, bits | 1, |_| 0)
                .iter()
                .map(|l| (l.lane, l.tid_in_block))
                .collect();
            let fence = |scope| SyncEvent::Fence {
                scope,
                block_id: warp / WPB,
                global_warp: warp,
                tids: &tids,
                active_mask: bits | 1,
                pc: PC,
                step,
            };
            let lock_word = |_| base + 60 + (bits >> 5 & 1);
            match selector {
                0..=9 => {
                    let first = base + (bits >> 2) % 44;
                    let strided = base + (bits >> 2) % 44 % 8;
                    let lanes = match bits >> 8 & 7 {
                        0 => lanes_of(warp, MASKS[bits as usize & 3], |lane| strided + 2 * lane),
                        1 => lanes_of(warp, MASKS[bits as usize & 3], |_| first),
                        3 => lanes_of(warp, MASKS[bits as usize & 3], |l| first + l / 16 * 9),
                        4 => lanes_of(warp, MASKS[bits as usize & 3], |l| first + l % 16),
                        _ => lanes_of(warp, MASKS[bits as usize & 3], |lane| first + lane),
                    };
                    let kind = KINDS[selector as usize % 5];
                    det.on_mem(&mem_access(&k, kind, warp, &lanes, step), clock);
                }
                10 => det.on_sync(
                    &SyncEvent::BlockBarrier {
                        block_id: warp / WPB,
                    },
                    clock,
                ),
                11 => det.on_sync(
                    &SyncEvent::WarpBarrier {
                        block_id: warp / WPB,
                        warp_in_block: warp % WPB,
                        global_warp: warp,
                    },
                    clock,
                ),
                12 => det.on_sync(&fence(Scope::Device), clock),
                13 => det.on_sync(&fence(Scope::Block), clock),
                14 => {
                    let lanes = lanes_of(warp, 1 << (bits & 31), lock_word);
                    let kind = (cas(AtomOp::Cas), false);
                    det.on_mem(&mem_access(&k, kind, warp, &lanes, step), clock);
                }
                _ if bits % 4 == 0 => {
                    // Every other relaunch shadows half as many words, so
                    // the contention table folds words the metadata table
                    // (sized by the first launch) keeps apart.
                    let relaunch = LaunchInfo {
                        backing_words: info.backing_words - if bits % 8 == 0 { 32 } else { 0 },
                        ..info.clone()
                    };
                    det.at_launch(&relaunch, clock);
                }
                _ => {
                    let lanes = lanes_of(warp, 1 << (bits & 31), lock_word);
                    let kind = (cas(AtomOp::Exch), false);
                    det.on_mem(&mem_access(&k, kind, warp, &lanes, step), clock);
                }
            }
        }
    }

    /// Everything a script leaves behind that the row path could move.
    fn aftermath(det: &mut Iguard, clock: &Clock, base: u32) -> String {
        let observed = format!(
            "{:?} {:?} {:?} {:?} {:?} {:?}",
            det.stats(),
            det.uvm_stats(),
            det.degradation(),
            det.fault_stats(),
            pools(clock),
            det.races(),
        );
        let words: Vec<(u64, u64)> = (base..base + 72)
            .map(|w| table_mut(det).load(w))
            .map(|l| (l.acc, l.wr))
            .collect();
        format!("{observed} {words:?}")
    }

    /// The detector shapes of the fallback edges, as (what, configuration,
    /// free device bytes): the first takes rows wherever the split
    /// allows; every other one names a precondition that sends some or
    /// all of its rows down the per-lane path.
    fn edge_shapes() -> Vec<(&'static str, IguardConfig, u64)> {
        let base = IguardConfig::default;
        let armed = FaultConfig::disabled()
            .with_seed(3)
            .with_rate(FaultSite::MetaEviction, RATE_ONE / 16)
            .with_rate(FaultSite::MetaTagAlias, RATE_ONE / 16)
            .with_rate(FaultSite::UvmEvictStorm, RATE_ONE / 16);
        // 16 entries a page, nothing prefaulted, four pages of budget: a
        // row crosses pages, finds some absent, and FIFO eviction keeps
        // taking them away again.
        let paged = IguardConfig {
            uvm: uvm_sim::UvmConfig {
                page_bytes: 256,
                ..uvm_sim::UvmConfig::default()
            },
            prefault: false,
            ..base()
        };
        vec![
            ("resident", base(), 1 << 30),
            ("demand-paged", paged.clone(), 4 * 256),
            (
                "capacity cap",
                IguardConfig {
                    table_capacity_words: Some(16),
                    ..base()
                },
                1 << 30,
            ),
            (
                "armed fault plane",
                IguardConfig {
                    faults: armed,
                    ..base()
                },
                1 << 30,
            ),
            ("history ring", IguardConfig::with_history(2), 1 << 30),
            (
                "scaled addresses",
                IguardConfig {
                    addr_scale: 4,
                    ..paged.clone()
                },
                4 * 256,
            ),
        ]
    }

    /// Runs `script`, its 64 words starting at word `base`, under every
    /// edge shape twice — as built, where eligible splits take the row
    /// path, and with the row withheld, which sends every lane down the
    /// per-lane path — and requires the same aftermath.
    fn rows_agree_with_lanes(base: u32, script: &[Event]) {
        for (what, cfg, free_device_bytes) in edge_shapes() {
            let info = LaunchInfo {
                free_device_bytes,
                device_capacity_bytes: 1 << 12,
                backing_words: base as usize + 64,
                ..launch_info()
            };
            let run = |per_lane_only: bool| {
                let mut det = Iguard::new(cfg.clone());
                det.per_lane_only = per_lane_only;
                let mut clock = Clock::new();
                run_script(&mut det, &mut clock, &info, script);
                aftermath(&mut det, &clock, base)
            };
            assert_eq!(run(false), run(true), "{what} at word {base}");
        }
    }

    /// What one full-warp split of `kind` by warp 1, lane `l` on word
    /// `word(l)`, does to a freshly launched detector: engine visits, lanes
    /// folded, (parallel, serial) detection cycles, and the lane each of
    /// `probe`'s words remembers as its last accessor.
    fn one_split(
        cfg: IguardConfig,
        kind: (AccessKind, bool),
        word: impl Fn(u32) -> u32,
        probe: &[u32],
    ) -> (u64, u64, (u64, u64), Vec<u32>) {
        let mut det = Iguard::new(cfg);
        let mut clock = Clock::new();
        det.at_launch(&launch_info(), &mut clock);
        let before = clock.raw(CostCategory::Detection);
        let lanes = lanes_of(WARP, u32::MAX, word);
        det.on_mem(&mem_access(&kernel(), kind, WARP, &lanes, 1), &mut clock);
        let after = clock.raw(CostCategory::Detection);
        let last = probe
            .iter()
            .map(|&w| stored_lane(table_mut(&mut det).load(w).acc))
            .collect();
        let charged = (after.0 - before.0, after.1 - before.1);
        (det.stats.accesses, det.stats.coalesced_saved, charged, last)
    }

    /// §6.5 optimization 1 is per word group: a load or atomic split
    /// visits the engine once per distinct word, through the group's
    /// lowest lane, and pays one SIMD issue; a plain store — or any split
    /// with coalescing off — visits once per lane and is charged one more
    /// issue for every lane that queues behind another on its entry.
    #[test]
    fn a_split_folds_to_the_lowest_lane_of_each_word_group() {
        let on = IguardConfig::default;
        let off = || IguardConfig {
            coalescing: false,
            ..on()
        };
        let issue = CHECK_COST + MD_LOCK_COST;
        let [load, store, volatile_store, atomic, _] = KINDS;
        let two_words = |l: u32| if l < 16 { 8 } else { 40 };
        let folded = (2, 30, (issue, 0), vec![0, 16]);
        let per_lane = (32, 0, (31 * issue, 0), vec![15, 31]);
        for kind in [load, volatile_store, atomic] {
            assert_eq!(
                one_split(on(), kind, two_words, &[8, 40]),
                folded,
                "{kind:?}"
            );
            assert_eq!(
                one_split(off(), kind, two_words, &[8, 40]),
                per_lane,
                "{kind:?}"
            );
        }
        for cfg in [on(), off()] {
            assert_eq!(one_split(cfg, store, two_words, &[8, 40]), per_lane);
        }
        // One word is the one-group case of the same fold.
        assert_eq!(
            one_split(on(), load, |_| 8, &[8]),
            (1, 31, (issue, 0), vec![0])
        );
        assert_eq!(
            one_split(on(), store, |_| 8, &[8]),
            (32, 0, (32 * issue, 0), vec![31])
        );
        // Sixteen consecutive words twice over: the sixteen low lanes.
        let probe: Vec<u32> = (8..24).collect();
        let twice = one_split(on(), load, |l| 8 + l % 16, &probe);
        assert_eq!(twice, (16, 16, (issue, 0), (0..16).collect()));
    }

    /// The representatives of a row-twice-over split are a row, and go to
    /// the engine as one: alone, by a second warp inside the contention
    /// window, gapped, and over words a row of stores wrote.
    #[test]
    fn folded_rows_match_the_lane_path() {
        // 264 = 6 * 44 keeps `first` through `run_script`'s `% 44` and
        // sets the shape bits to 4, words `first + lane % 16`.
        let twice =
            |kind: u8, warp, first: u32, mask, gap| (kind, warp, (264 + first) << 2 | mask, gap);
        rows_agree_with_lanes(
            0,
            &[
                twice(0, 1, 0, 0, 1),
                twice(0, 2, 0, 0, 1),
                row(1, 3, 4, 0, 1),
                twice(0, 0, 4, 1, 1),
                twice(3, 1, 20, 0, 1),
                twice(2, 2, 20, 2, 1),
                twice(0, 3, 40, 3, 100),
            ],
        );
    }

    /// A scripted row: `kind` of [`KINDS`] by `warp` over `MASKS[mask]`,
    /// lane `l` on the script's word `first + l`, `gap` steps on.
    fn row(kind: u8, warp: u32, first: u32, mask: u32, gap: u32) -> Event {
        // 132 = 3 * 44 keeps `first` through `run_script`'s `% 44` and
        // sets the shape bits to "row".
        (kind, warp, (132 + first) << 2 | mask, gap)
    }

    /// The edges by hand: a row as the first touch of an unmapped page of
    /// slots; rows ending at the last slot and one past it; the same
    /// rows by another warp inside the contention window; a new launch
    /// (both epochs move, and the contention table now folds at word 32)
    /// between two rows; short rows on one page, then a full row crossing
    /// into the next.
    #[test]
    fn row_path_matches_the_lane_path_at_the_table_edges() {
        rows_agree_with_lanes(
            0,
            &[
                row(1, 1, 0, 0, 1),
                row(0, 1, 32, 0, 1),
                row(1, 2, 32, 0, 1),
                row(1, 1, 33, 0, 1),
                row(0, 3, 33, 1, 1),
                row(3, 0, 0, 2, 1),
                (15, 0, 0, 1),
                row(0, 1, 0, 0, 1),
                row(1, 2, 20, 0, 1),
                row(0, 3, 20, 0, 1),
                row(1, 0, 0, 3, 1),
                row(1, 0, 4, 3, 1),
                row(1, 2, 8, 0, 100),
                row(0, 3, 8, 0, 1),
            ],
        );
    }

    /// The same where a page of slots ends after the script's 32nd word: a
    /// full row straddling the boundary as the first touch of both pages,
    /// and again by another warp inside the contention window; a full and
    /// a gapped row ending on the page's last slot; a gapped and a short
    /// row straddling; a row from the next page's first slot; then a new
    /// launch whose contention table folds at the boundary, and the rows
    /// again. A row that is not on one page of both tables goes lane by
    /// lane, having done nothing as a row.
    #[test]
    fn row_path_matches_the_lane_path_across_a_slot_page_boundary() {
        rows_agree_with_lanes(
            SLOT_PAGE as u32 - 32,
            &[
                row(1, 1, 16, 0, 1),
                row(0, 2, 16, 0, 1),
                row(1, 1, 0, 0, 1),
                row(0, 3, 1, 1, 1),
                row(1, 3, 10, 1, 1),
                row(1, 0, 32, 0, 1),
                row(3, 2, 24, 3, 1),
                (15, 0, 0, 1),
                row(0, 1, 16, 0, 1),
                row(1, 2, 0, 0, 1),
                row(1, 0, 1, 1, 1),
                row(0, 3, 32, 0, 100),
            ],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn row_path_matches_the_lane_path_on_random_traffic(
            base in prop_oneof![Just(0), Just(SLOT_PAGE as u32 - 32)],
            script in prop::collection::vec(
                (0u8..16, 0..TOTAL_WARPS, any::<u32>(), 0u32..40),
                1..80,
            )
        ) {
            rows_agree_with_lanes(base, &script);
        }
    }
}
