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
//! The table-keyed back half (steps 3–5) lives in
//! [`crate::engine::Engine`]. The detector owns `S` of them, one per
//! hashed-address shard (`S` a power of two, 1 by default): word `w`
//! routes to engine `w & (S-1)` and is checked there at sub-word
//! `w >> log2(S)` — an injective per-engine mapping, so engines never
//! share table state. Everything else — the live synchronization
//! metadata, lock state, counters, the report channel — exists once, and
//! every check runs in program order inside the callback, so race
//! reports and every verdict-relevant counter are the same for any `S`.
//! What differs with `S` is the metadata plane's simulated cost: each
//! engine pages its own `1/S` slice of the managed region (DESIGN.md §12).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::num::NonZeroUsize;
use std::time::Instant;

use faults::FaultStats;
use gpu_sim::hook::{AccessKind, LaneAccess, LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::ir::{AtomOp, Scope, Space};
use gpu_sim::timing::{Clock, CostCategory, Phase};
use nvbit_sim::channel::ChannelStats;
use nvbit_sim::Tool;

use crate::checks::AccessType;
use crate::config::IguardConfig;
use crate::engine::{AccessCtx, Engine, EngineParams, Sink};
use crate::error::IguardError;
use crate::locks::WarpLockState;
use crate::metadata::{MetaStats, MetadataTable, TableConfig, ENTRY_BYTES};
use crate::prune::{PruneMode, PruneStats, Pruner, StaticRaceReport};
use crate::report::{RaceRecord, RaceReporter, RaceSite};
use crate::syncmeta::SyncMetadata;

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
        self.accesses += other.accesses;
        self.coalesced_saved += other.coalesced_saved;
        for (a, b) in self.safe_hits.iter_mut().zip(other.safe_hits.iter()) {
            *a += b;
        }
        for (a, b) in self.race_hits.iter_mut().zip(other.race_hits.iter()) {
            *a += b;
        }
        self.contended_accesses += other.contended_accesses;
        self.contention_cycles += other.contention_cycles;
        self.uvm_cycles += other.uvm_cycles;
        self.launches += other.launches;
        self.missed_checks += other.missed_checks;
        self.orphan_events += other.orphan_events;
        self.table_init_failures += other.table_init_failures;
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
        self.missed_checks += other.missed_checks;
        self.orphan_events += other.orphan_events;
        self.table_init_failures += other.table_init_failures;
        self.meta.accumulate(&other.meta);
        self.channel.accumulate(&other.channel);
        self.uvm_injected_evictions += other.uvm_injected_evictions;
        self.uvm_injected_oom_denials += other.uvm_injected_oom_denials;
    }
}

/// The iGUARD race detector.
#[derive(Debug)]
pub struct Iguard {
    cfg: IguardConfig,
    /// Number of address shards (a power of two).
    shards: usize,
    sync: Option<SyncMetadata>,
    locks: Vec<WarpLockState>,
    /// One engine per address shard; empty until a launch allocates the
    /// metadata tables (and again empty if that allocation failed).
    engines: Vec<Engine>,
    reporter: RaceReporter,
    stats: IguardStats,
    /// Reusable scratch for the uncoalesced same-entry dedup check, so the
    /// per-split hot path does not heap-allocate.
    scratch_words: Vec<u32>,
    /// Reusable scratch for lock-inference (lane, addr) pairs.
    scratch_pairs: Vec<(u32, u32)>,
    /// Static-pruning plane (`None` when `cfg.prune` is `Off`, keeping the
    /// pruning-disabled detector byte-identical to the pre-pruning one).
    pruner: Option<Pruner>,
}

impl Default for Iguard {
    fn default() -> Self {
        Self::new(IguardConfig::default())
    }
}

impl Iguard {
    /// Creates a detector with the given configuration and one address
    /// shard.
    ///
    /// Infallible for ergonomics: a zero report capacity is clamped to 1.
    /// Use [`Iguard::try_with_shards`] to surface configuration errors
    /// instead.
    #[must_use]
    pub fn new(cfg: IguardConfig) -> Self {
        Iguard::with_shards(cfg, 1)
    }

    /// Like [`Iguard::new`], with the per-word tables split into `shards`
    /// hashed-address shards (rounded up to a power of two, clamped to
    /// `1..=65536`).
    #[must_use]
    pub fn with_shards(cfg: IguardConfig, shards: usize) -> Self {
        let capacity = NonZeroUsize::new(cfg.report_capacity).unwrap_or(NonZeroUsize::MIN);
        let reporter = RaceReporter::with_capacity(capacity, &cfg.faults);
        Iguard::build(cfg, shards, reporter)
    }

    /// Fallible [`Iguard::with_shards`]: returns a typed error on an
    /// unusable configuration (e.g. a zero-capacity report buffer).
    pub fn try_with_shards(cfg: IguardConfig, shards: usize) -> Result<Self, IguardError> {
        let reporter = RaceReporter::with_faults(cfg.report_capacity, &cfg.faults)?;
        Ok(Iguard::build(cfg, shards, reporter))
    }

    fn build(cfg: IguardConfig, shards: usize, reporter: RaceReporter) -> Self {
        let pruner = (cfg.prune != PruneMode::Off).then(|| Pruner::new(cfg.prune));
        Iguard {
            cfg,
            shards: shards.clamp(1, 1 << 16).next_power_of_two(),
            sync: None,
            locks: Vec::new(),
            engines: Vec::new(),
            reporter,
            stats: IguardStats::default(),
            scratch_words: Vec::with_capacity(32),
            scratch_pairs: Vec::with_capacity(32),
            pruner,
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

    /// Races reported statically at launch time, without running the
    /// detector. Kept separate from the dynamic report stream so report
    /// parity between pruned and unpruned runs is unaffected.
    #[must_use]
    pub fn static_reports(&self) -> &[StaticRaceReport] {
        self.pruner.as_ref().map_or(&[], Pruner::reports)
    }

    /// Everything the detector degraded on, with per-cause accounting.
    #[must_use]
    pub fn degradation(&self) -> Degradation {
        let mut meta = MetaStats::default();
        for e in &self.engines {
            meta.accumulate(&e.table.meta_stats());
        }
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
    /// components (metadata tables, their UVM regions, report channel).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = self.reporter.fault_stats();
        for e in &self.engines {
            total.accumulate(&e.table.fault_stats());
        }
        total
    }

    /// Race-report channel accounting.
    #[must_use]
    pub fn channel_stats(&self) -> ChannelStats {
        self.reporter.channel_stats()
    }

    /// UVM statistics of the metadata regions, summed over the shards
    /// (empty before first launch).
    #[must_use]
    pub fn uvm_stats(&self) -> uvm_sim::UvmStats {
        let mut total = uvm_sim::UvmStats::default();
        for e in &self.engines {
            total.accumulate(&e.table.uvm_stats());
        }
        total
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

    /// The front half of one lane access: orphan accounting, live-state
    /// capture (synchronization snapshot, lock summary), and routing to
    /// the word's engine, which runs the check and reports immediately.
    fn process_access(
        &mut self,
        lane_access: &LaneAccess,
        kind: AccessType,
        access: &MemAccess<'_>,
        clock: &mut Clock,
        verify_safe: bool,
    ) {
        let word = lane_access.addr / 4;
        let warp = access.global_warp;
        let lane = lane_access.lane;
        // Graceful degradation: an access with no live launch state
        // (table allocation failed, or the event arrived before any
        // launch) is dropped and counted instead of panicking.
        let (Some(sync), Some(locks), Some(engine)) = (
            self.sync.as_ref(),
            self.locks.get(warp as usize),
            self.engines.get_mut(word as usize & (self.shards - 1)),
        ) else {
            self.stats.orphan_events += 1;
            return;
        };
        self.stats.accesses += 1;
        // Verify-mode pruning: tag the access and hand the engine a handle
        // on the violation counter, charged if it reports a race.
        let verify = verify_safe
            .then(|| {
                self.pruner.as_mut().map(|p| {
                    p.count_pruned_access();
                    p.verify_violations_mut()
                })
            })
            .flatten();

        let ctx = AccessCtx {
            access,
            word: word >> self.shards.trailing_zeros(),
            addr: lane_access.addr,
            lane,
            kind,
            snap: sync.snapshot(warp, lane),
            lock_summary: locks.summary(lane),
        };
        let mut sink = Sink {
            stats: &mut self.stats,
            reporter: &mut self.reporter,
            clock,
            verify,
        };
        engine.process(&ctx, sync, &mut sink);
    }

    /// First-launch allocation of the managed metadata region (~4× device
    /// capacity, §6.1), one `1/shards` slice per engine, prefaulting what
    /// fits. On failure the detector keeps running blind: every access
    /// becomes an orphan event, and the next launch tries again.
    fn allocate_engines(&mut self, info: &LaunchInfo, words: usize, clock: &mut Clock) {
        let shards = self.shards as u64;
        let table_cfg = TableConfig {
            words,
            uvm: self.cfg.uvm.clone(),
            virtual_bytes: 4 * info.device_capacity_bytes / shards,
            device_budget_bytes: info.free_device_bytes / shards,
            addr_scale: self.cfg.addr_scale,
            capacity_words: self.cfg.table_capacity_words.map(|c| c / self.shards),
            faults: self.cfg.faults.clone(),
        };
        let tables: Result<Vec<MetadataTable>, IguardError> = (0..self.shards)
            .map(|_| MetadataTable::new(table_cfg.clone()))
            .collect();
        let Ok(tables) = tables else {
            self.stats.table_init_failures += 1;
            return;
        };
        let mut setup = self.cfg.setup_fixed_cost;
        for mut table in tables {
            if self.cfg.prefault {
                // Metadata is 4x the data it shadows (Sec 6.1); prefault as
                // much of it as free device memory allows.
                let needed = info.app_footprint_bytes.saturating_mul(4) / shards;
                setup += table.prefault(needed.max(ENTRY_BYTES));
            }
            self.engines.push(Engine::new(table));
        }
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

    fn take_reinstrument(&mut self) -> bool {
        self.pruner
            .as_mut()
            .is_some_and(Pruner::take_reinstrument)
    }

    fn at_launch(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        if let Some(p) = &mut self.pruner {
            p.on_launch(info);
        }
        self.stats.launches += 1;
        let window = if self.cfg.contention_window > 0 {
            self.cfg.contention_window
        } else {
            64.max(u64::from(info.total_warps))
        };
        self.sync = Some(SyncMetadata::new(info.grid_dim, info.warps_per_block));
        self.locks = vec![WarpLockState::default(); info.total_warps as usize];

        // Each engine's tables cover its shard's sub-words.
        let words = info.backing_words.div_ceil(self.shards);
        if self.engines.is_empty() {
            self.allocate_engines(info, words, clock);
        } else {
            for e in &mut self.engines {
                e.table.begin_epoch();
            }
        }
        let params = EngineParams {
            backoff: self.cfg.backoff,
            contention_base: self.cfg.contention_base,
            its_support: self.cfg.its_support,
            history_depth: self.cfg.history_depth,
        };
        for e in &mut self.engines {
            e.begin_launch(words, info.total_warps, window, params);
        }
        clock.charge_serial(CostCategory::Misc, self.cfg.misc_cost_per_launch);
    }

    fn on_mem(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        // iGUARD proper watches global memory only (§4: scratchpad races
        // are prior tools' domain; see `crate::scratchpad` for that
        // extension).
        if access.space != Space::Global {
            return;
        }
        let t0 = clock.profiling().then(Instant::now);
        self.on_global_mem(access, clock);
        if let Some(t) = t0 {
            clock.add_phase_ns(Phase::Detect, t.elapsed().as_nanos() as u64);
        }
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, clock: &mut Clock) {
        clock.charge(CostCategory::Detection, 4);
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
                let lanes: Vec<u32> = tids.iter().map(|&(lane, _)| lane).collect();
                if let Some(wl) = self.locks.get_mut(*global_warp as usize) {
                    wl.on_fence(lanes, *scope);
                }
            }
        }
    }
}

impl Iguard {
    /// The global-memory half of [`Tool::on_mem`], separated so the wrapper
    /// can attribute its wall time to [`Phase::Detect`].
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
        clock.charge(
            CostCategory::Detection,
            self.cfg.check_cost + self.cfg.md_lock_cost,
        );

        // §6.5 optimization 1: same-address loads/atomics of the active
        // lanes cannot race with each other — one lane checks for all.
        let coalescible = self.cfg.coalescing
            && !matches!(kind, AccessType::Store)
            && access.lanes.len() > 1
            && access.lanes.iter().all(|l| l.addr == access.lanes[0].addr);
        if coalescible {
            self.stats.coalesced_saved += access.lanes.len() as u64 - 1;
            let rep = access.lanes[0];
            self.process_access(&rep, kind, access, clock, verify_safe);
        } else {
            // Lanes hitting the *same* metadata entry serialize on its
            // lock; lanes on distinct entries proceed in parallel. Charge
            // the intra-warp serialization the coalescing optimization
            // exists to remove.
            if access.lanes.len() > 1 {
                self.scratch_words.clear();
                self.scratch_words
                    .extend(access.lanes.iter().map(|l| l.addr / 4));
                self.scratch_words.sort_unstable();
                self.scratch_words.dedup();
                let dup = access.lanes.len() - self.scratch_words.len();
                if dup > 0 {
                    clock.charge(
                        CostCategory::Detection,
                        dup as u64 * (self.cfg.check_cost + self.cfg.md_lock_cost),
                    );
                }
            }
            for i in 0..access.lanes.len() {
                let la = access.lanes[i];
                self.process_access(&la, kind, access, clock, verify_safe);
            }
        }
    }
}
