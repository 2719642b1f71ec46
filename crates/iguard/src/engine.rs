//! The per-word detection engine: the "back half" of the pipeline.
//!
//! [`crate::detector::Iguard`] splits each instrumented access into a
//! *front half* (lock inference, coalescing, synchronization snapshots —
//! everything that reads live launch state) and a *back half* that only
//! needs the flat metadata/contention/history tables keyed by word index.
//! This module is that back half; the detector owns one [`Engine`]. Both
//! halves run inside the instrumentation callback, in program order:
//! every observation (counter increment, clock charge, race report)
//! lands immediately.
//! The packed Figure-4 word pair is the working form: an entry is decoded
//! only for the accesses P1–P3 cannot decide on its bits (DESIGN.md §8).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use gpu_sim::hook::{LaneAccess, MemAccess};
use gpu_sim::paged::Paged;
use gpu_sim::timing::{Clock, CostCategory};

use crate::bitfield::{
    stored_lane, stored_warp, AccessorInfo, MetadataEntry, ATOMIC, BLK_SHARED, DEV_SHARED,
    INFO_MASK, LOCK_BITS, MODIFIED, SCOPE_BLOCK, VALID,
};
use crate::checks::{detailed, preliminary, AccessType, CurrAccess, MdView, RaceKind, Safe};
use crate::detector::IguardStats;
use crate::metadata::{MetadataTable, SLOT_PAGE};
use crate::report::{RaceRecord, RaceReporter};
use crate::syncmeta::SyncMetadata;

/// Capacity of the inline history ring; the §6.7 ablation tops out at
/// depth 8, and [`HistoryTable`] clamps deeper configurations to it.
pub(crate) const HISTORY_RING: usize = 8;

/// Maps a preliminary-check outcome to its `safe_hits` slot.
#[must_use]
pub(crate) fn safe_index(safe: Safe) -> usize {
    match safe {
        Safe::FirstAccess => 0,
        Safe::NoWrite => 1,
        Safe::ProgramOrder => 2,
        Safe::WarpSynced => 3,
        Safe::Barrier => 4,
        Safe::SafeAtomic => 5,
    }
}

/// Maps a race kind to its `race_hits` slot.
#[must_use]
pub(crate) fn race_index(kind: RaceKind) -> usize {
    match kind {
        RaceKind::AtomicScope => 0,
        RaceKind::IntraWarp => 1,
        RaceKind::IntraBlock => 2,
        RaceKind::InterBlock => 3,
        RaceKind::Locking => 4,
    }
}

/// One contention slot, packed to 4-byte alignment: 20 bytes, what the
/// four parallel vectors it replaces cost.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed(4))]
struct ContentionSlot {
    last_step: u64,
    epoch: u32,
    last_warp: u32,
    streak: u32,
}

/// Epoch-invalidated per-word contention state.
///
/// Indexed by metadata word exactly like `MetadataTable` (power-of-two
/// capacity ≥ the backing words, so every in-bounds word index maps
/// injectively to its own slot): a slot whose epoch is stale reads as the
/// zeroed default the old `HashMap::entry(word).or_default()` produced,
/// so the replacement is behaviour-identical while removing hashing from
/// the per-access path. Storage is the pages of slots the traffic has
/// visited, 20 KB each.
#[derive(Debug, Default)]
struct ContentionTable {
    mask: usize,
    epoch: u32,
    slots: Paged<ContentionSlot, SLOT_PAGE>,
}

impl ContentionTable {
    /// Sets the slot mask for `words` and invalidates every slot (the old
    /// per-launch `HashMap::clear`) without visiting one.
    fn begin_launch(&mut self, words: usize) {
        let cap = words.next_power_of_two();
        self.mask = cap - 1;
        if self.epoch == 0 {
            self.epoch = 1;
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The 32-bit epoch wrapped: stale slots could masquerade as
            // live, so pay one real clear every 2^32 launches.
            self.slots
                .for_each_mapped(|slot| *slot = ContentionSlot::default());
            self.epoch = 1;
        }
    }

    /// The slot of `word`, with the live epoch. Fresh slots get epoch 0,
    /// which never equals the live epoch.
    #[inline(always)]
    fn slot(&mut self, word: u32) -> (&mut ContentionSlot, u32) {
        (self.slots.entry(word as usize & self.mask), self.epoch)
    }

    /// The slots of words `first..=last`, when each word is its own slot
    /// and the span lies on one page.
    #[inline(always)]
    fn row(&mut self, first: u32, last: u32) -> Option<(&mut [ContentionSlot], u32)> {
        if last as usize > self.mask {
            return None;
        }
        let slots = self.slots.row(first as usize, last as usize)?;
        Some((slots, self.epoch))
    }
}

impl ContentionSlot {
    /// Applies the streak update for one access and returns the updated
    /// streak (the state machine of the contention charge). A slot last
    /// written in another epoch reads as zeroed.
    #[inline(always)]
    fn update(&mut self, epoch: u32, warp: u32, step: u64, window: u64) -> u32 {
        let (last_step, last_warp, mut streak) = if self.epoch == epoch {
            (self.last_step, self.last_warp, self.streak)
        } else {
            (0, 0, 0)
        };
        let close = step.saturating_sub(last_step) <= window;
        if close && last_warp != warp {
            streak = streak.saturating_add(1);
        } else if !close {
            streak = 1;
        }
        *self = ContentionSlot {
            last_step: step,
            epoch,
            last_warp: warp,
            streak,
        };
        streak
    }
}

/// Words per page of history rings (17 KB a page).
const HISTORY_PAGE: usize = 128;

/// One word's ring of at most [`HISTORY_RING`] records, inline, so pushing
/// a record allocates nothing. Records store the accessor identity
/// losslessly (unlike the packed 16-byte entry, whose fields truncate)
/// next to the accessor's lock Bloom summary.
#[derive(Debug, Clone, Copy, Default)]
struct HistoryRing {
    epoch: u32,
    head: u8,
    len: u8,
    recs: [(AccessorInfo, u16); HISTORY_RING],
}

/// Fixed-capacity history rings (§6.7 ablation depths > 1), indexed like
/// [`ContentionTable`] and invalidated the same way. Replaces the old
/// `HashMap<u32, VecDeque<HistRecord>>`.
#[derive(Debug, Default)]
struct HistoryTable {
    /// Records kept per word: `min(cfg.history_depth, HISTORY_RING)`.
    /// `<= 1` disables the table (the entry itself is depth-1 history).
    depth: usize,
    mask: usize,
    epoch: u32,
    rings: Paged<HistoryRing, HISTORY_PAGE>,
}

impl HistoryTable {
    fn begin_launch(&mut self, words: usize, configured_depth: usize) {
        self.depth = configured_depth.min(HISTORY_RING);
        if self.depth <= 1 {
            return;
        }
        let cap = words.next_power_of_two();
        self.mask = cap - 1;
        if self.epoch == 0 {
            self.epoch = 1;
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.rings.for_each_mapped(|ring| ring.epoch = 0);
            self.epoch = 1;
        }
    }

    /// Appends a record, evicting the oldest once the ring is full (the
    /// old `push_back` + trim-to-depth).
    fn push(&mut self, word: u32, info: AccessorInfo, locks: u16) {
        let ring = self.rings.entry(word as usize & self.mask);
        if ring.epoch != self.epoch {
            (ring.epoch, ring.head, ring.len) = (self.epoch, 0, 0);
        }
        let (head, len) = (ring.head as usize, ring.len as usize);
        let pos = if len == self.depth {
            ring.head = ((head + 1) % self.depth) as u8;
            head
        } else {
            ring.len += 1;
            (head + len) % self.depth
        };
        ring.recs[pos] = (info, locks);
    }

    /// Yields `word`'s records newest-first, skipping the newest (which
    /// duplicates the entry's own accessor) — the `iter().rev().skip(1)`
    /// order of the old `VecDeque`.
    fn rev_skip_newest(&self, word: u32) -> impl Iterator<Item = (AccessorInfo, u16)> {
        let ring = self.rings.read(word as usize & self.mask);
        let live = self.depth > 1 && ring.epoch == self.epoch;
        let (head, len, depth) = (ring.head as usize, ring.len as usize, self.depth);
        let older = if live { len.saturating_sub(1) } else { 0 };
        (0..older).rev().map(move |i| ring.recs[(head + i) % depth])
    }
}

/// Serial cycles per unit of metadata-lock contention under backoff (the
/// critical section others must wait out).
const CONTENTION_BASE: u64 = 8;

/// Configuration knobs the engine reads per access, frozen at launch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineParams {
    /// §6.5 optimization 2: contenders back off instead of hammering.
    pub backoff: bool,
    /// ScoRD emulation when false: same-warp accesses treated converged.
    pub its_support: bool,
    /// Accessor-history depth (§6.7 ablation); 1 disables the table.
    pub history_depth: usize,
}

/// What the front half captures once per warp split: everything the
/// back half needs that is the same for every lane of the split.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitCtx<'a, 'b> {
    /// The warp split (accessor identity, step, active mask, and the
    /// kernel/pc a race report names).
    pub access: &'a MemAccess<'b>,
    pub kind: AccessType,
    /// Flag bits the write-back keeps from the loaded accessor word
    /// (with its tag) and sets on top; a function of `kind` alone.
    pub keep: u64,
    pub set: u64,
    /// The accessing block's warp range, as (first WarpID, length): a
    /// stored WarpID is in the block iff it lies in the range —
    /// `WarpID / warps_per_block == block_id` without the division.
    pub block_first: u64,
    pub block_warps: u64,
}

impl<'a, 'b> SplitCtx<'a, 'b> {
    pub fn new(access: &'a MemAccess<'b>, kind: AccessType) -> Self {
        // Every access validates the entry; a write marks it modified; an
        // atomic records its scope, and a plain store supersedes the
        // atomic history of the location: P6 must not treat a plain
        // last-write as a safe atomic (engineering choice, DESIGN.md).
        const WRITE: u64 = VALID | MODIFIED;
        let (set, clear) = match kind {
            AccessType::Load => (VALID, 0),
            AccessType::Store => (WRITE, ATOMIC | SCOPE_BLOCK),
            AccessType::Atomic { scope_block: true } => (WRITE | ATOMIC | SCOPE_BLOCK, 0),
            AccessType::Atomic { scope_block: false } => (WRITE | ATOMIC, SCOPE_BLOCK),
        };
        let block_warps = u64::from(access.warps_per_block.max(1));
        SplitCtx {
            access,
            kind,
            keep: !(INFO_MASK | clear),
            set,
            block_first: u64::from(access.block_id) * block_warps,
            block_warps,
        }
    }
}

/// One lane of a split: the per-thread remainder, captured at access time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneCtx {
    /// Index into the engine's tables: the accessed word.
    pub word: u32,
    /// Byte address of the accessed word (for reports).
    pub addr: u32,
    /// Identity and synchronization snapshot taken at access time, packed
    /// as bits [45-0] of a metadata word — the form the write-back stores.
    pub snap: u64,
    /// Lock Bloom summary of the accessing lane at access time.
    pub lock_summary: u16,
}

impl LaneCtx {
    /// The snapshot decoded, with the WarpID the packed field truncates.
    fn info(&self, warp_id: u32) -> AccessorInfo {
        let snap = AccessorInfo::unpack(self.snap);
        AccessorInfo { warp_id, ..snap }
    }
}

/// Where the engine's observations land: the detector's counters, the
/// launch clock, and the one race-report channel.
pub(crate) struct Sink<'a> {
    pub stats: &'a mut IguardStats,
    pub reporter: &'a mut RaceReporter,
    pub clock: &'a mut Clock,
    /// Verify-mode pruning: present iff this access would have been pruned
    /// in `On` mode; a race report then charges the violation counter
    /// before the record enters the channel (so the count is immune to
    /// channel faults).
    pub verify: Option<&'a mut u64>,
}

/// The flat per-word detection state: metadata + contention + history
/// tables plus the check pipeline over them (§6.2, §6.4).
#[derive(Debug)]
pub(crate) struct Engine {
    /// Packed 16-byte-entry metadata table over the UVM region.
    pub table: MetadataTable,
    contention: ContentionTable,
    checks: Checks,
}

/// What the per-word step works with besides the word's two slots; apart
/// from the two tables so a row can hold slices of both while it steps.
#[derive(Debug, Default)]
struct Checks {
    history: HistoryTable,
    params: EngineParams,
    window: u64,
    total_warps: u32,
}

impl Engine {
    pub fn new(table: MetadataTable) -> Self {
        Engine {
            table,
            contention: ContentionTable::default(),
            checks: Checks::default(),
        }
    }

    /// Per-launch reset: epoch-invalidates the contention and history
    /// tables and freezes this launch's parameters. (The metadata table's
    /// own epoch is the owner's to advance: a table allocated by this
    /// launch starts valid.)
    pub fn begin_launch(
        &mut self,
        words: usize,
        total_warps: u32,
        window: u64,
        params: EngineParams,
    ) {
        let checks = &mut self.checks;
        (checks.total_warps, checks.window, checks.params) = (total_warps, window, params);
        checks.history.begin_launch(words, params.history_depth);
        self.contention.begin_launch(words);
    }

    /// The per-access detection pipeline (§6.2, §6.4), for any word under
    /// any table configuration: metadata load (UVM + eviction accounting),
    /// [`Checks::step`] on the word's two slots — each resolved once —
    /// and the write-back into the metadata slot.
    ///
    /// Only the *serializing* components charge cycles here — UVM faults
    /// and metadata-lock contention; the data-parallel part of the check
    /// is charged once per warp split by the front half.
    ///
    /// Inlined into the front half's lane loop, with the table accessors
    /// it calls, so what a split's lanes share stays in registers; the
    /// decoded check is the cold few per cent and stays a call.
    #[inline(always)]
    pub fn process(
        &mut self,
        split: &SplitCtx<'_, '_>,
        lane: &LaneCtx,
        sync: &SyncMetadata,
        out: &mut Sink<'_>,
    ) {
        // Metadata lookup: UVM touch + contention serialization.
        let (loaded, slot, epoch, tag) = self.table.open(lane.word);
        if loaded.uvm_cycles > 0 {
            out.stats.uvm_cycles += loaded.uvm_cycles;
            out.clock
                .charge_serial(CostCategory::Detection, loaded.uvm_cycles);
        }
        if loaded.evicted {
            // The entry's previous accessor was forgotten (capacity
            // pressure or injected fault): the check below degenerates to
            // a first access, so a race could slip by — count it.
            out.stats.missed_checks += 1;
        }
        let contention = self.contention.slot(lane.word);
        let words = (loaded.acc, loaded.wr);
        let words = self.checks.step(split, lane, words, contention, sync, out);
        slot.write(epoch, tag, words);
    }

    /// A whole split at once, for lanes on ascending consecutive words
    /// (`word − lane` constant): both tables' slots for the span are
    /// resolved once and [`Checks::step`] runs over the two slices in lane
    /// order, so counters, charges and reports land as [`Engine::process`]
    /// lane by lane would land them. Returns `false`, having done nothing,
    /// when that is not known to hold — see [`MetadataTable::row`]; a
    /// history ring also wants the per-word path.
    #[inline(always)]
    pub fn process_row(
        &mut self,
        split: &SplitCtx<'_, '_>,
        lanes: &[LaneAccess],
        lane_ctx: impl Fn(&LaneAccess) -> LaneCtx,
        sync: &SyncMetadata,
        out: &mut Sink<'_>,
    ) -> bool {
        let (first, last) = (lanes[0].addr / 4, lanes[lanes.len() - 1].addr / 4);
        if self.checks.history.depth > 1 {
            return false;
        }
        let Some((contention, contention_epoch)) = self.contention.row(first, last) else {
            return false;
        };
        let Some((meta, epoch)) = self.table.row(first, last) else {
            return false;
        };
        let checks = &mut self.checks;
        for la in lanes {
            let lane = lane_ctx(la);
            let at = (lane.word - first) as usize;
            let contention = (&mut contention[at], contention_epoch);
            let words = meta[at].read(epoch, 0);
            let words = checks.step(split, &lane, words, contention, sync, out);
            meta[at].write(epoch, 0, words);
        }
        true
    }
}

impl Checks {
    /// One word's step, shared by the per-lane and the row path:
    /// contention streak and charge, shared-flag update, two-tier P/R
    /// checks on the `(accessor, writer)` words, history, write-back.
    #[inline(always)]
    fn step(
        &mut self,
        split: &SplitCtx<'_, '_>,
        lane: &LaneCtx,
        (mut acc, wr): (u64, u64),
        (contention, contention_epoch): (&mut ContentionSlot, u32),
        sync: &SyncMetadata,
        out: &mut Sink<'_>,
    ) -> (u64, u64) {
        let access = split.access;
        let warp = access.global_warp;
        let streak = contention.update(contention_epoch, warp, access.step, self.window);
        if streak > 1 {
            let cycles = if self.params.backoff {
                // Dynamically-adjusted exponential backoff: contenders
                // spread out and hand the lock off cleanly, so each pays
                // roughly one critical section of serialization.
                CONTENTION_BASE
            } else {
                // Unmitigated CAS hammering: every retry burns memory
                // bandwidth and delays the holder, so the per-access waste
                // grows with the number of concurrent contenders.
                2 * u64::from(streak.min(96))
            };
            out.stats.contended_accesses += 1;
            out.stats.contention_cycles += cycles;
            out.clock.charge_serial(CostCategory::Detection, cycles);
        }

        let safe = if acc & VALID == 0 {
            Some(Safe::FirstAccess)
        } else {
            // Shared-flag update precedes the checks (§6.2).
            let prev_warp = stored_warp(acc);
            if u64::from(prev_warp).wrapping_sub(split.block_first) >= split.block_warps {
                acc |= DEV_SHARED;
            } else if prev_warp != warp {
                acc |= BLK_SHARED;
            }
            // P2 and P3 as `checks::preliminary` states them, on the raw
            // bits; everything else decodes (the engine tests pin the two
            // against each other over every flag/identity combination).
            let md_lane = stored_lane(if split.kind.is_write() { acc } else { wr });
            if acc & MODIFIED == 0 && split.kind == AccessType::Load {
                Some(Safe::NoWrite)
            } else if acc & (DEV_SHARED | BLK_SHARED) == 0 && stored_lane(lane.snap) == md_lane {
                Some(Safe::ProgramOrder)
            } else {
                self.check_decoded(split, lane, MetadataEntry::unpack(acc, wr), sync, out)
            }
        };
        if let Some(safe) = safe {
            out.stats.safe_hits[safe_index(safe)] += 1;
        }

        // Metadata write-back: identity + synchronization of the accessor,
        // and of the writer (with its locks) for writes (§6.2).
        let wr = if split.kind.is_write() {
            (u64::from(lane.lock_summary) << (64 - LOCK_BITS)) | lane.snap
        } else {
            wr
        };
        if self.history.depth > 1 {
            self.history
                .push(lane.word, lane.info(warp), lane.lock_summary);
        }
        ((acc & split.keep) | split.set | lane.snap, wr)
    }

    /// The accesses P1–P3 cannot decide: P4–P6, then R1–R5 (and the
    /// history ring) over the decoded entry. Reports a race if one is
    /// found; returns the preliminary condition that held, if any.
    #[inline(never)]
    fn check_decoded(
        &self,
        split: &SplitCtx<'_, '_>,
        lane: &LaneCtx,
        entry: MetadataEntry,
        sync: &SyncMetadata,
        out: &mut Sink<'_>,
    ) -> Option<Safe> {
        let access = split.access;
        let wpb = access.warps_per_block;
        let md_info = if split.kind.is_write() {
            entry.accessor
        } else {
            entry.writer
        };
        let md = self.md_view(md_info, sync);
        let mut curr = CurrAccess {
            kind: split.kind,
            warp_id: access.global_warp,
            lane: stored_lane(lane.snap),
            block_id: access.block_id,
            active_mask: access.active_mask,
            snap: lane.info(access.global_warp),
            locks: lane.lock_summary,
        };
        if !self.params.its_support && md_info.warp_id == access.global_warp {
            // ScoRD mode: the detector predates ITS and assumes lockstep
            // warps -- same-warp accesses are always treated as converged,
            // which is exactly why ScoRD misses ITS races (Sec 4).
            curr.active_mask |= 1 << md_info.lane;
        }

        let safe = preliminary(&entry, &md, &curr, wpb);
        if safe.is_none() {
            let mut verdict = detailed(&entry, &md, &curr, wpb);
            // §6.7 ablation: with deeper history, also check against
            // older accessors that the 16-byte entry has forgotten.
            if verdict.is_none() && self.params.history_depth > 1 {
                verdict = self.check_history(lane.word, &entry, &curr, wpb, sync);
            }
            if let Some(kind) = verdict {
                report_race(kind, access, lane.addr, &curr, md_info, out);
            }
        }
        safe
    }

    /// Resolves a stored accessor into a check view: fence counters are
    /// read *live* from the synchronization metadata when the identity is
    /// within the current grid, otherwise from the stored snapshot. (This
    /// is the only live-sync read on the check path — barrier counters
    /// are only consumed via access-time snapshots.)
    fn md_view(&self, info: AccessorInfo, sync: &SyncMetadata) -> MdView {
        // Identity is only meaningful within the current launch epoch; a
        // wrapped WarpID outside the grid falls back to stored counters.
        if info.warp_id < self.total_warps {
            MdView {
                info,
                live_dev_fence: sync.dev_fence(info.warp_id, info.lane),
                live_blk_fence: sync.blk_fence(info.warp_id, info.lane),
            }
        } else {
            MdView {
                info,
                live_dev_fence: info.dev_fence,
                live_blk_fence: info.blk_fence,
            }
        }
    }

    fn check_history(
        &self,
        word: u32,
        entry: &MetadataEntry,
        curr: &CurrAccess,
        wpb: u32,
        sync: &SyncMetadata,
    ) -> Option<RaceKind> {
        for (info, locks) in self.history.rev_skip_newest(word) {
            let md = self.md_view(info, sync);
            let mut shadow = *entry;
            shadow.locks = locks;
            if preliminary(&shadow, &md, curr, wpb).is_none() {
                if let Some(kind) = detailed(&shadow, &md, curr, wpb) {
                    return Some(kind);
                }
            }
        }
        None
    }
}

/// Counts and ships one race verdict — the only place a [`RaceRecord`]
/// is built. `curr` is the current access after the ScoRD mask twiddle,
/// `prev` the stored accessor it raced against.
fn report_race(
    kind: RaceKind,
    access: &MemAccess<'_>,
    addr: u32,
    curr: &CurrAccess,
    prev: AccessorInfo,
    out: &mut Sink<'_>,
) {
    if let Some(v) = out.verify.as_deref_mut() {
        // The detector fired on a provably-safe access: the static
        // analysis is unsound. Count it loudly; the report still ships.
        *v += 1;
    }
    out.stats.race_hits[race_index(kind)] += 1;
    let record = RaceRecord {
        kernel: access.kernel.name.clone(),
        pc: access.pc,
        line: access.kernel.line(access.pc).map(str::to_owned),
        addr,
        kind,
        access: curr.kind,
        warp: curr.warp_id,
        lane: curr.lane,
        block: curr.block_id,
        prev_warp: prev.warp_id,
        prev_lane: prev.lane,
    };
    out.reporter.report(record, out.clock);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A contention slot written 2^32 launches ago carries the epoch the
    /// wrap restarts at: the wrap must clear it, and the one written at
    /// `u32::MAX`, while slots written afterwards work as ever.
    #[test]
    fn contention_epoch_wrap_forgets_every_slot() {
        let mut t = ContentionTable::default();
        t.begin_launch(64);
        let streak = |t: &mut ContentionTable, word, warp, step| {
            let (slot, epoch) = t.slot(word);
            slot.update(epoch, warp, step, 100)
        };
        assert_eq!(streak(&mut t, 5, 3, 10), 1);
        t.epoch = u32::MAX - 1;
        t.begin_launch(64);
        assert_eq!(t.epoch, u32::MAX);
        assert_eq!(streak(&mut t, 6, 3, 10), 1);
        assert_eq!(streak(&mut t, 6, 4, 11), 2, "live at the last epoch");
        t.begin_launch(64);
        assert_eq!(t.epoch, 1, "wrapped");
        // Were the old slots live, another warp a step on would read 2.
        assert_eq!(streak(&mut t, 5, 4, 11), 1, "epoch-1 slot from before");
        assert_eq!(streak(&mut t, 6, 5, 12), 1, "epoch-MAX slot");
        assert_eq!(streak(&mut t, 6, 6, 13), 2, "written after the wrap");
    }

    #[test]
    fn history_epoch_wrap_forgets_every_ring() {
        let info = |warp_id| AccessorInfo {
            warp_id,
            ..AccessorInfo::default()
        };
        let older = |h: &HistoryTable, word| -> Vec<u32> {
            h.rev_skip_newest(word).map(|(i, _)| i.warp_id).collect()
        };
        let mut h = HistoryTable::default();
        h.begin_launch(64, 4);
        (1..=3).for_each(|w| h.push(5, info(w), 0));
        assert_eq!(older(&h, 5), [2, 1]);
        h.epoch = u32::MAX - 1;
        h.begin_launch(64, 4);
        assert_eq!(h.epoch, u32::MAX);
        (4..=5).for_each(|w| h.push(6, info(w), 0));
        assert_eq!(older(&h, 6), [4], "live at the last epoch");
        h.begin_launch(64, 4);
        assert_eq!(h.epoch, 1, "wrapped");
        assert_eq!(older(&h, 5), [0u32; 0], "epoch-1 ring from before");
        assert_eq!(older(&h, 6), [0u32; 0], "epoch-MAX ring");
        (7..=8).for_each(|w| h.push(5, info(w), 0));
        assert_eq!(older(&h, 5), [7], "written after the wrap");
    }
}
