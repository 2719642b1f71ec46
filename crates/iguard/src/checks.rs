//! The two-tier race checks of Table 2, as pure functions.
//!
//! Preliminary checks P1–P6 prove an access trivially race-free; only if
//! all fail are the detailed conditions R1–R5 evaluated **in order** — the
//! first satisfied condition classifies the race. If neither tier decides
//! (e.g. accesses correctly protected by common locks), no race is declared.
//!
//! Conventions carried over from the paper (§6.4):
//! - `md` is the last **accessor** for stores/atomics and the last
//!   **writer** for loads;
//! - shared flags (`DevShared`/`BlkShared`) are updated from the current
//!   access *before* the checks run (§6.2 describes the flag update as the
//!   first step of metadata processing);
//! - fence comparisons test whether **`md`'s thread** has fenced since its
//!   recorded access: its stored counters against its *live* counters —
//!   this is the release-side happens-before approximation inherited from
//!   ScoRD;
//! - barrier comparisons use the shared per-block / per-warp counters,
//!   which both threads of the pair observe identically.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bitfield::{AccessorInfo, MetadataEntry};

/// Classification of the current access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    /// Global load.
    Load,
    /// Global store.
    Store,
    /// Atomic (treated as a store, §6.2); `scope_block` = block scope.
    Atomic {
        /// True for `_block`-scoped atomics.
        scope_block: bool,
    },
}

impl AccessType {
    /// Whether the access writes (store or atomic).
    #[must_use]
    pub fn is_write(&self) -> bool {
        !matches!(self, AccessType::Load)
    }

    /// Whether the access is atomic.
    #[must_use]
    pub fn is_atomic(&self) -> bool {
        matches!(self, AccessType::Atomic { .. })
    }
}

/// The current access, with its thread's live synchronization snapshot.
#[derive(Debug, Clone, Copy)]
pub struct CurrAccess {
    /// Load / store / scoped atomic.
    pub kind: AccessType,
    /// Global warp id.
    pub warp_id: u32,
    /// Lane within the warp.
    pub lane: u32,
    /// Block id.
    pub block_id: u32,
    /// `__activemask()` of the split executing the access.
    pub active_mask: u32,
    /// The current thread's synchronization counters (its warp's barrier
    /// counter, its block's barrier counter, its own fence counters).
    pub snap: AccessorInfo,
    /// Bloom summary of locks the current thread holds (sm.Locks).
    pub locks: u16,
}

/// The `md` record: the stored accessor/writer info plus the *live* fence
/// counters of that same thread, read from the synchronization metadata at
/// check time.
#[derive(Debug, Clone, Copy)]
pub struct MdView {
    /// Stored identity + counters at the time of the previous access.
    pub info: AccessorInfo,
    /// That thread's fence counters *now*.
    pub live_dev_fence: u8,
    /// That thread's block-scope fence counter *now*.
    pub live_blk_fence: u8,
}

impl MdView {
    /// Has `md`'s thread executed a device-scope fence since its access?
    #[must_use]
    pub fn dev_fenced_since(&self) -> bool {
        self.info.dev_fence != self.live_dev_fence
    }

    /// Has `md`'s thread executed a block-scope fence since its access?
    #[must_use]
    pub fn blk_fenced_since(&self) -> bool {
        self.info.blk_fence != self.live_blk_fence
    }

    /// Has `md`'s thread executed *any* fence since its access?
    #[must_use]
    pub fn fenced_since(&self) -> bool {
        self.dev_fenced_since() || self.blk_fenced_since()
    }
}

/// Which preliminary condition proved the access race-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Safe {
    /// P1: first access to the location.
    FirstAccess,
    /// P2: location never written and the access is a load.
    NoWrite,
    /// P3: same thread, program order.
    ProgramOrder,
    /// P4: same warp, separated by `__syncwarp` or still converged.
    WarpSynced,
    /// P5: same block, separated by `__syncthreads`.
    Barrier,
    /// P6: both atomic, with sufficient scope.
    SafeAtomic,
}

/// The race classes of Table 2 / Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RaceKind {
    /// R1 → AS: insufficient atomic scope.
    AtomicScope,
    /// R2 → ITS: intra-warp race (missing `__syncwarp` under ITS).
    IntraWarp,
    /// R3 → BR: intra-block race (missing `__syncthreads`/fence).
    IntraBlock,
    /// R4 → DR: inter-block race (missing device-scope fence).
    InterBlock,
    /// R5 → IL: improper locking (empty lockset intersection).
    Locking,
}

impl RaceKind {
    /// Every race class, in `Ord` order.
    pub const ALL: [RaceKind; 5] = [
        RaceKind::AtomicScope,
        RaceKind::IntraWarp,
        RaceKind::IntraBlock,
        RaceKind::InterBlock,
        RaceKind::Locking,
    ];

    /// The short code the paper's Table 4 uses.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            RaceKind::AtomicScope => "AS",
            RaceKind::IntraWarp => "ITS",
            RaceKind::IntraBlock => "BR",
            RaceKind::InterBlock => "DR",
            RaceKind::Locking => "IL",
        }
    }

    /// Inverse of [`RaceKind::code`] — used by checkpoint parsing.
    #[must_use]
    pub fn parse(code: &str) -> Option<RaceKind> {
        RaceKind::ALL.iter().copied().find(|k| k.code() == code)
    }
}

/// Figure 9's improper-locking signature: both sides hold locks, yet the
/// locksets share no member. Mutual exclusion was *intended* and did not
/// happen, so neither lockstep convergence (P4's in-mask clause) nor the
/// happens-before ordering of one particular schedule (R2–R4) makes the
/// pair safe — the next schedule interleaves the critical sections.
#[must_use]
fn disjointly_locked(entry: &MetadataEntry, curr: &CurrAccess) -> bool {
    entry.locks != 0 && curr.locks != 0 && entry.locks & curr.locks == 0
}

/// Runs P2–P6 (P1, the validity check, is handled by the caller before the
/// entry is materialized). Returns the first satisfied condition.
#[must_use]
pub fn preliminary(
    entry: &MetadataEntry,
    md: &MdView,
    curr: &CurrAccess,
    warps_per_block: u32,
) -> Option<Safe> {
    let flags = entry.flags;
    let md_block = md.info.block_id(warps_per_block);

    // P2: no write access — unmodified location, current access is a load.
    if !flags.modified && curr.kind == AccessType::Load {
        return Some(Safe::NoWrite);
    }

    // P3: program-order access — location only ever touched by one warp,
    // and the same thread touched it last.
    if !flags.dev_shared && !flags.blk_shared && curr.lane == md.info.lane {
        return Some(Safe::ProgramOrder);
    }

    // P4: warp-synced access — same warp, and either an intervening
    // __syncwarp (warp-barrier counters differ) or the previous accessor is
    // in the current active mask (converged: lockstep ordering applies).
    // Convergence does NOT excuse a disjointly-locked pair: two critical
    // sections under different locks entered together are Figure 9's bug,
    // not lockstep-ordered code. An explicit __syncwarp still does.
    if !flags.dev_shared
        && !flags.blk_shared
        && curr.warp_id == md.info.warp_id
        && (md.info.warp_bar != curr.snap.warp_bar
            || (curr.active_mask & (1 << md.info.lane) != 0 && !disjointly_locked(entry, curr)))
    {
        return Some(Safe::WarpSynced);
    }

    // P5: barrier access — same block with an intervening __syncthreads.
    if !flags.dev_shared && md_block == curr.block_id && md.info.blk_bar != curr.snap.blk_bar {
        return Some(Safe::Barrier);
    }

    // P6: safe atomic access — both atomic with sufficient scope.
    //
    // Two extensions (documented in DESIGN.md) make the condition cover
    // the flag-polling protocols ubiquitous in the paper's workloads
    // (grid sync's `while(*arrived != gridSize)`, transactional retry
    // loops), on which the paper reports zero false positives:
    //
    // - P6a: a word-sized *load* of a location only ever written by
    //   atomics is hardware-atomic on GPUs and is treated as a relaxed
    //   atomic read — safe under the same scope condition;
    // - P6b: an atomic *write* to a location that has only been read so
    //   far is a publication; relaxed atomicity means no torn data.
    //
    // Insufficient scope still falls through to R1 in both cases.
    let scope_sufficient = md_block == curr.block_id || !flags.scope_block;
    if flags.atomic && scope_sufficient && (curr.kind.is_atomic() || curr.kind == AccessType::Load)
    {
        return Some(Safe::SafeAtomic);
    }
    if curr.kind.is_atomic() && !flags.modified {
        return Some(Safe::SafeAtomic);
    }

    None
}

/// Runs R1–R5 in order; the first satisfied condition is the race class.
#[must_use]
pub fn detailed(
    entry: &MetadataEntry,
    md: &MdView,
    curr: &CurrAccess,
    warps_per_block: u32,
) -> Option<RaceKind> {
    let flags = entry.flags;
    let md_block = md.info.block_id(warps_per_block);
    let writer_block = entry.writer.block_id(warps_per_block);

    // R1: scoped-atomic race — the location is used with block-scope
    // atomics but crossed a block boundary.
    if flags.atomic && flags.scope_block && writer_block != curr.block_id {
        return Some(RaceKind::AtomicScope);
    }

    // R5 (hoisted): both sides locked with an empty intersection — the
    // Figure 9 class. Checked before R2–R4 so the verdict is the same on
    // every schedule: a split schedule would otherwise classify the same
    // buggy pair as an ITS/BR/DR race, and a schedule where the first
    // thread's unlock fence already landed would suppress R2–R4 entirely.
    if disjointly_locked(entry, curr) {
        return Some(RaceKind::Locking);
    }

    // R2: intra-warp (ITS) race — same warp, no fence by md's thread since
    // its access, location never shared wider than this warp.
    if md.info.warp_id == curr.warp_id
        && !md.fenced_since()
        && !flags.dev_shared
        && !flags.blk_shared
    {
        return Some(RaceKind::IntraWarp);
    }

    // R3: intra-block race — same block, no fence since, not device-shared.
    if md_block == curr.block_id && !md.fenced_since() && !flags.dev_shared {
        return Some(RaceKind::IntraBlock);
    }

    // R4: inter-block race — different blocks, no *device-scope* fence by
    // md's thread since its access.
    if md_block != curr.block_id && !md.dev_fenced_since() {
        return Some(RaceKind::InterBlock);
    }

    // R5: missing-lock race — locks are in play but the locksets are
    // disjoint.
    if (entry.locks != 0 || curr.locks != 0) && (entry.locks & curr.locks) == 0 {
        return Some(RaceKind::Locking);
    }

    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bitfield::Flags;

    const WPB: u32 = 4; // warps per block in these scenarios

    fn info(warp: u32, lane: u32) -> AccessorInfo {
        AccessorInfo {
            warp_id: warp,
            lane,
            ..AccessorInfo::default()
        }
    }

    fn entry_with(flags: Flags, accessor: AccessorInfo, writer: AccessorInfo) -> MetadataEntry {
        MetadataEntry {
            tag: 0,
            flags,
            accessor,
            writer,
            locks: 0,
        }
    }

    fn md(i: AccessorInfo) -> MdView {
        MdView {
            info: i,
            live_dev_fence: i.dev_fence,
            live_blk_fence: i.blk_fence,
        }
    }

    fn curr(kind: AccessType, warp: u32, lane: u32) -> CurrAccess {
        CurrAccess {
            kind,
            warp_id: warp,
            lane,
            block_id: warp / WPB,
            active_mask: 1 << lane,
            snap: info(warp, lane),
            locks: 0,
        }
    }

    fn valid_flags() -> Flags {
        Flags {
            valid: true,
            ..Flags::default()
        }
    }

    // ---- P conditions -------------------------------------------------------

    #[test]
    fn p2_unmodified_load_is_safe() {
        let e = entry_with(valid_flags(), info(0, 0), AccessorInfo::default());
        let c = curr(AccessType::Load, 1, 3);
        assert_eq!(preliminary(&e, &md(e.writer), &c, WPB), Some(Safe::NoWrite));
    }

    #[test]
    fn p2_does_not_apply_to_stores() {
        let mut f = valid_flags();
        f.blk_shared = true; // block P3/P4
        let e = entry_with(f, info(0, 0), info(0, 0));
        let c = curr(AccessType::Store, 1, 3);
        assert_eq!(preliminary(&e, &md(e.accessor), &c, WPB), None);
    }

    #[test]
    fn p3_program_order_same_thread() {
        let mut f = valid_flags();
        f.modified = true;
        let e = entry_with(f, info(2, 7), info(2, 7));
        let c = curr(AccessType::Store, 2, 7);
        assert_eq!(
            preliminary(&e, &md(e.accessor), &c, WPB),
            Some(Safe::ProgramOrder)
        );
    }

    #[test]
    fn p3_requires_unshared_location() {
        let mut f = valid_flags();
        f.modified = true;
        f.blk_shared = true; // another warp of the block touched it
        let e = entry_with(f, info(2, 7), info(2, 7));
        let c = curr(AccessType::Store, 2, 7);
        assert_ne!(
            preliminary(&e, &md(e.accessor), &c, WPB),
            Some(Safe::ProgramOrder)
        );
    }

    #[test]
    fn p4_syncwarp_separates_same_warp_accesses() {
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 1); // lane 1 wrote, warp_bar counter was 0
        let e = entry_with(f, prev, prev);
        let mut c = curr(AccessType::Load, 2, 0);
        c.snap.warp_bar = 1; // a __syncwarp released since
        assert_eq!(
            preliminary(&e, &md(e.writer), &c, WPB),
            Some(Safe::WarpSynced)
        );
    }

    #[test]
    fn p4_converged_threads_are_ordered() {
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 1);
        let e = entry_with(f, prev, prev);
        let mut c = curr(AccessType::Load, 2, 0);
        c.active_mask = 0b11; // lanes 0 and 1 executing together (lockstep)
        assert_eq!(
            preliminary(&e, &md(e.writer), &c, WPB),
            Some(Safe::WarpSynced)
        );
    }

    #[test]
    fn p4_diverged_unsynced_same_warp_is_not_safe() {
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 1);
        let e = entry_with(f, prev, prev);
        let c = curr(AccessType::Load, 2, 0); // mask = lane 0 only, no syncwarp
        assert_eq!(preliminary(&e, &md(e.writer), &c, WPB), None);
    }

    #[test]
    fn p5_syncthreads_separates_same_block_accesses() {
        let mut f = valid_flags();
        f.modified = true;
        f.blk_shared = true;
        let prev = info(0, 3); // warp 0, block 0, blk_bar was 0
        let e = entry_with(f, prev, prev);
        let mut c = curr(AccessType::Store, 1, 3); // warp 1, same block 0
        c.snap.blk_bar = 1; // a __syncthreads released since
        assert_eq!(
            preliminary(&e, &md(e.accessor), &c, WPB),
            Some(Safe::Barrier)
        );
    }

    #[test]
    fn p5_does_not_apply_across_blocks() {
        let mut f = valid_flags();
        f.modified = true;
        f.dev_shared = true;
        let prev = info(0, 3);
        let e = entry_with(f, prev, prev);
        let mut c = curr(AccessType::Store, 5, 3); // block 1
        c.snap.blk_bar = 1;
        assert_eq!(preliminary(&e, &md(e.accessor), &c, WPB), None);
    }

    #[test]
    fn p6_device_scope_atomics_are_safe_across_blocks() {
        let mut f = valid_flags();
        f.modified = true;
        f.atomic = true;
        f.scope_block = false;
        f.dev_shared = true;
        let prev = info(0, 0);
        let e = entry_with(f, prev, prev);
        let c = curr(AccessType::Atomic { scope_block: false }, 5, 0); // block 1
        assert_eq!(
            preliminary(&e, &md(e.accessor), &c, WPB),
            Some(Safe::SafeAtomic)
        );
    }

    #[test]
    fn p6_block_scope_atomics_safe_within_block() {
        let mut f = valid_flags();
        f.modified = true;
        f.atomic = true;
        f.scope_block = true;
        f.blk_shared = true;
        let prev = info(0, 0);
        let e = entry_with(f, prev, prev);
        let c = curr(AccessType::Atomic { scope_block: true }, 1, 0); // same block
        assert_eq!(
            preliminary(&e, &md(e.accessor), &c, WPB),
            Some(Safe::SafeAtomic)
        );
    }

    #[test]
    fn p6_block_scope_atomics_not_safe_across_blocks() {
        let mut f = valid_flags();
        f.modified = true;
        f.atomic = true;
        f.scope_block = true;
        f.dev_shared = true;
        let prev = info(0, 0);
        let e = entry_with(f, prev, prev);
        let c = curr(AccessType::Atomic { scope_block: false }, 5, 0); // block 1
        assert_eq!(preliminary(&e, &md(e.accessor), &c, WPB), None);
    }

    // ---- R conditions -------------------------------------------------------

    #[test]
    fn r1_scoped_atomic_race_fires_across_blocks() {
        // The Figure 1 bug: last atomic was block scoped, current accessor
        // is in another block.
        let mut f = valid_flags();
        f.modified = true;
        f.atomic = true;
        f.scope_block = true;
        f.dev_shared = true;
        let writer = info(0, 0); // block 0
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Atomic { scope_block: false }, 5, 0); // block 1
        assert_eq!(
            detailed(&e, &md(e.accessor), &c, WPB),
            Some(RaceKind::AtomicScope)
        );
    }

    #[test]
    fn r2_intra_warp_race_without_fence() {
        // The Figure 8 bug: same warp, diverged, no fence since the store.
        let mut f = valid_flags();
        f.modified = true;
        let writer = info(2, 1);
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Load, 2, 0);
        assert_eq!(
            detailed(&e, &md(e.writer), &c, WPB),
            Some(RaceKind::IntraWarp)
        );
    }

    #[test]
    fn r2_suppressed_if_md_thread_fenced_since() {
        let mut f = valid_flags();
        f.modified = true;
        let writer = info(2, 1);
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Load, 2, 0);
        let m = MdView {
            info: writer,
            live_dev_fence: 1,
            live_blk_fence: 0,
        };
        // R2 fails; falls through to R3 (same block) which also requires no
        // fence — the device fence suppresses both; R4 needs cross-block;
        // R5 needs locks. No race.
        assert_eq!(detailed(&e, &m, &c, WPB), None);
    }

    #[test]
    fn r3_intra_block_race_across_warps() {
        let mut f = valid_flags();
        f.modified = true;
        f.blk_shared = true;
        let writer = info(0, 3); // block 0
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Store, 1, 3); // warp 1, block 0
        assert_eq!(
            detailed(&e, &md(e.accessor), &c, WPB),
            Some(RaceKind::IntraBlock)
        );
    }

    #[test]
    fn r3_suppressed_by_block_fence_of_md_thread() {
        let mut f = valid_flags();
        f.modified = true;
        f.blk_shared = true;
        let writer = info(0, 3);
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Store, 1, 3);
        let m = MdView {
            info: writer,
            live_dev_fence: 0,
            live_blk_fence: 1,
        };
        assert_eq!(detailed(&e, &m, &c, WPB), None);
    }

    #[test]
    fn r4_inter_block_race_without_device_fence() {
        // The Figure 10 bug: writer in another block never device-fenced.
        let mut f = valid_flags();
        f.modified = true;
        f.dev_shared = true;
        let writer = info(0, 3); // block 0
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Load, 5, 0); // block 1
        assert_eq!(
            detailed(&e, &md(e.writer), &c, WPB),
            Some(RaceKind::InterBlock)
        );
    }

    #[test]
    fn r4_block_fence_is_insufficient_across_blocks() {
        let mut f = valid_flags();
        f.modified = true;
        f.dev_shared = true;
        let writer = info(0, 3);
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Load, 5, 0);
        // md's thread executed only a *block* fence: still an R4 race.
        let m = MdView {
            info: writer,
            live_dev_fence: 0,
            live_blk_fence: 1,
        };
        assert_eq!(detailed(&e, &m, &c, WPB), Some(RaceKind::InterBlock));
    }

    #[test]
    fn r4_suppressed_by_device_fence() {
        let mut f = valid_flags();
        f.modified = true;
        f.dev_shared = true;
        let writer = info(0, 3);
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Load, 5, 0);
        let m = MdView {
            info: writer,
            live_dev_fence: 5,
            live_blk_fence: 0,
        };
        assert_eq!(detailed(&e, &m, &c, WPB), None);
    }

    #[test]
    fn r5_disjoint_locksets_race() {
        // The Figure 9 bug: both sides hold locks, but different ones.
        let mut f = valid_flags();
        f.modified = true;
        let writer = info(2, 1);
        let mut e = entry_with(f, writer, writer);
        e.locks = 0b0011; // writer held lock A
                          // md's thread fenced since (the unlock fence) so R2/R3 don't fire.
        let m = MdView {
            info: writer,
            live_dev_fence: 1,
            live_blk_fence: 0,
        };
        let mut c = curr(AccessType::Store, 2, 0);
        c.locks = 0b1100; // current thread holds lock B
        assert_eq!(detailed(&e, &m, &c, WPB), Some(RaceKind::Locking));
    }

    #[test]
    fn r5_common_lock_is_race_free() {
        let mut f = valid_flags();
        f.modified = true;
        let writer = info(2, 1);
        let mut e = entry_with(f, writer, writer);
        e.locks = 0b0110;
        let m = MdView {
            info: writer,
            live_dev_fence: 1,
            live_blk_fence: 0,
        };
        let mut c = curr(AccessType::Store, 2, 0);
        c.locks = 0b0110;
        assert_eq!(
            detailed(&e, &m, &c, WPB),
            None,
            "common lock ⇒ no P or R satisfied"
        );
    }

    #[test]
    fn p4_convergence_does_not_excuse_disjoint_locks() {
        // Figure 9 under lockstep: both lanes entered their differently-
        // locked critical sections together. P4's in-mask clause must not
        // mark the pair safe, and the verdict must be IL on this schedule
        // too (not ITS via R2).
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 0);
        let mut e = entry_with(f, prev, prev);
        e.locks = 0b0011;
        let m = md(prev);
        let mut c = curr(AccessType::Store, 2, 1);
        c.active_mask = 0b11; // previous accessor's lane is converged
        c.locks = 0b1100;
        assert_eq!(preliminary(&e, &m, &c, WPB), None);
        assert_eq!(detailed(&e, &m, &c, WPB), Some(RaceKind::Locking));
    }

    #[test]
    fn p4_convergence_still_excuses_common_lock() {
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 0);
        let mut e = entry_with(f, prev, prev);
        e.locks = 0b0110;
        let m = md(prev);
        let mut c = curr(AccessType::Store, 2, 1);
        c.active_mask = 0b11;
        c.locks = 0b0110;
        assert_eq!(preliminary(&e, &m, &c, WPB), Some(Safe::WarpSynced));
    }

    #[test]
    fn p4_convergence_still_excuses_one_sided_locks() {
        // Only one side holds a lock: the hierarchy of sync checks still
        // applies (no intended-but-failed mutual exclusion between them).
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 0);
        let mut e = entry_with(f, prev, prev);
        e.locks = 0b0011;
        let m = md(prev);
        let mut c = curr(AccessType::Store, 2, 1);
        c.active_mask = 0b11;
        c.locks = 0;
        assert_eq!(preliminary(&e, &m, &c, WPB), Some(Safe::WarpSynced));
    }

    #[test]
    fn syncwarp_still_orders_disjointly_locked_sections() {
        // An explicit __syncwarp between the two critical sections is real
        // happens-before ordering; the pair is not racy.
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 0);
        let mut e = entry_with(f, prev, prev);
        e.locks = 0b0011;
        let m = md(prev);
        let mut c = curr(AccessType::Store, 2, 1);
        c.active_mask = 0b10; // split apart...
        c.snap.warp_bar = prev.warp_bar + 1; // ...but syncwarp'd since
        c.locks = 0b1100;
        assert_eq!(preliminary(&e, &m, &c, WPB), Some(Safe::WarpSynced));
    }

    #[test]
    fn disjoint_locks_beat_r2_on_split_schedules() {
        // Mid-critical-section split: no fence from the previous thread
        // yet, so R2 would fire — but the IL classification must win so
        // the verdict does not depend on the schedule.
        let mut f = valid_flags();
        f.modified = true;
        let prev = info(2, 0);
        let mut e = entry_with(f, prev, prev);
        e.locks = 0b0011;
        let m = md(prev); // no fence since the access
        let mut c = curr(AccessType::Store, 2, 1);
        c.active_mask = 0b10; // diverged
        c.locks = 0b1100;
        assert_eq!(detailed(&e, &m, &c, WPB), Some(RaceKind::Locking));
    }

    #[test]
    fn r5_one_sided_locking_races() {
        let mut f = valid_flags();
        f.modified = true;
        let writer = info(2, 1);
        let e = entry_with(f, writer, writer); // writer held no locks
        let m = MdView {
            info: writer,
            live_dev_fence: 1,
            live_blk_fence: 0,
        };
        let mut c = curr(AccessType::Store, 2, 0);
        c.locks = 0b1000;
        assert_eq!(detailed(&e, &m, &c, WPB), Some(RaceKind::Locking));
    }

    #[test]
    fn check_order_r1_beats_r4() {
        // A cross-block access that violates both atomic scope and fencing
        // must be classified as AS (R1 is checked first).
        let mut f = valid_flags();
        f.modified = true;
        f.atomic = true;
        f.scope_block = true;
        f.dev_shared = true;
        let writer = info(0, 0);
        let e = entry_with(f, writer, writer);
        let c = curr(AccessType::Store, 5, 0);
        assert_eq!(
            detailed(&e, &md(e.accessor), &c, WPB),
            Some(RaceKind::AtomicScope)
        );
    }

    #[test]
    fn race_kind_codes_match_table4() {
        assert_eq!(RaceKind::AtomicScope.code(), "AS");
        assert_eq!(RaceKind::IntraWarp.code(), "ITS");
        assert_eq!(RaceKind::IntraBlock.code(), "BR");
        assert_eq!(RaceKind::InterBlock.code(), "DR");
        assert_eq!(RaceKind::Locking.code(), "IL");
    }
}
