//! Lock inference and the lock tables of §6.3 / Figure 7.
//!
//! CUDA has no lock instruction; the guidebook idiom is
//! `atomicCAS(lock,0,1)` + `__threadfence()` to acquire and
//! `__threadfence()` + `atomicExch(lock,0)` to release. iGUARD infers these
//! sequences at runtime:
//!
//! - **atomicCAS** inserts a Valid (not yet Active) entry with an 18-bit
//!   hash of the lock address and the CAS's scope;
//! - a **fence** *activates* every Valid entry of matching-or-narrower
//!   scope — an Active entry is a held lock;
//! - **atomicExch** invalidates the matching entry (even without the
//!   release fence — a missing fence is caught separately by the fence
//!   counters, §6.3).
//!
//! Each warp owns one table (3 entries + the `isThread` escalation bit);
//! each thread owns a shadow table. If more than one lane of a warp ever
//! executes `atomicCAS` in the same split, the kernel is inferred to use
//! **per-thread locking** and the warp permanently switches to the
//! per-thread tables (`isThread` is never unset, §6.3).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use gpu_sim::ir::{Scope, WARP_SIZE};

/// Entries per lock table ("up to 3 separate locks held ... at any given
/// time. We found that this is sufficient for practical purposes", §6.3).
pub const LOCK_TABLE_ENTRIES: usize = 3;

/// 18-bit hash of a lock variable's address, as stored in the table.
#[must_use]
pub fn lock_hash(addr: u32) -> u32 {
    // Multiply-shift hash folded to 18 bits; any fixed mixing works, it
    // just needs to be deterministic and well spread.
    (addr.wrapping_mul(0x9E37_79B9) >> 14) & 0x3_FFFF
}

/// 16-bit, 2-hash Bloom set for one lock (the `Locks` summary of Fig. 4).
#[must_use]
pub fn bloom_bits(hash18: u32) -> u16 {
    let b1 = hash18 & 0xF;
    let b2 = (hash18 >> 9) & 0xF;
    (1u16 << b1) | (1u16 << b2)
}

/// One lock-table entry (Figure 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockEntry {
    /// CAS observed for this lock.
    pub valid: bool,
    /// Acquire fence observed after the CAS: the lock is held.
    pub active: bool,
    /// Scope of the CAS: true = block scope.
    pub scope_block: bool,
    /// 18-bit address hash.
    pub hash: u32,
}

/// A 3-entry lock table (per warp or per thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct LockTable {
    entries: [LockEntry; LOCK_TABLE_ENTRIES],
    /// Round-robin victim cursor when the table is full.
    cursor: u8,
}

impl LockTable {
    /// Records an `atomicCAS` on `addr` with `scope`: insert or refresh a
    /// Valid, inactive entry.
    pub fn on_cas(&mut self, addr: u32, scope: Scope) {
        let hash = lock_hash(addr);
        let scope_block = scope == Scope::Block;
        // Refresh an existing entry for this lock.
        for e in &mut self.entries {
            if e.valid && e.hash == hash && e.scope_block == scope_block {
                return;
            }
        }
        // Insert into a free slot, else evict round-robin.
        let slot = self
            .entries
            .iter()
            .position(|e| !e.valid)
            .unwrap_or_else(|| {
                let s = self.cursor as usize % LOCK_TABLE_ENTRIES;
                self.cursor = self.cursor.wrapping_add(1);
                s
            });
        self.entries[slot] = LockEntry {
            valid: true,
            active: false,
            scope_block,
            hash,
        };
    }

    /// Records a fence of `scope`: activates Valid entries with matching or
    /// narrower scope (§6.3). A device fence activates device- and
    /// block-scope locks; a block fence activates block-scope locks only.
    pub fn on_fence(&mut self, scope: Scope) {
        for e in &mut self.entries {
            if e.valid {
                let activates = match scope {
                    Scope::Device => true,
                    Scope::Block => e.scope_block,
                };
                if activates {
                    e.active = true;
                }
            }
        }
    }

    /// Records an `atomicExch` on `addr`: invalidates the matching entry
    /// (unlock), regardless of Active state.
    pub fn on_exch(&mut self, addr: u32, scope: Scope) {
        let hash = lock_hash(addr);
        let scope_block = scope == Scope::Block;
        for e in &mut self.entries {
            if e.valid && e.hash == hash && e.scope_block == scope_block {
                *e = LockEntry::default();
            }
        }
    }

    /// The 16-bit Bloom summary of currently *held* (Active) locks — what
    /// gets copied into the memory metadata on a write.
    #[must_use]
    pub fn summary(&self) -> u16 {
        self.entries
            .iter()
            .filter(|e| e.valid && e.active)
            .fold(0u16, |acc, e| acc | bloom_bits(e.hash))
    }

    /// Number of currently held locks.
    #[must_use]
    pub fn held(&self) -> usize {
        self.entries.iter().filter(|e| e.valid && e.active).count()
    }

    /// Raw entries, for diagnostics and tests.
    #[must_use]
    pub fn entries(&self) -> &[LockEntry; LOCK_TABLE_ENTRIES] {
        &self.entries
    }
}

/// All lock state for one warp: the warp table, the per-lane shadow tables,
/// and the `isThread` escalation bit.
#[derive(Debug, Clone, Default)]
pub struct WarpLockState {
    warp_table: LockTable,
    /// Empty until `isThread` escalates: nothing reads or writes the
    /// shadow tables before that, and most warps never get there.
    thread_tables: Vec<LockTable>,
    is_thread: bool,
}

impl WarpLockState {
    /// Whether per-thread locking has been inferred for this warp.
    #[must_use]
    pub fn is_thread(&self) -> bool {
        self.is_thread
    }

    /// Handles an `atomicCAS` split: `lanes_addrs` is one `(lane, addr)`
    /// per active lane. More than one active lane CASing at once ⇒ infer
    /// per-thread locking and set `isThread` permanently (§6.3).
    pub fn on_cas(&mut self, lanes_addrs: &[(u32, u32)], scope: Scope) {
        if lanes_addrs.len() > 1 && !self.is_thread {
            self.is_thread = true;
            self.thread_tables = vec![LockTable::default(); WARP_SIZE];
        }
        if self.is_thread {
            for &(lane, addr) in lanes_addrs {
                self.thread_tables[lane as usize].on_cas(addr, scope);
            }
        } else {
            // Warp-level locking: the (single) leader acts for the warp.
            for &(_, addr) in lanes_addrs {
                self.warp_table.on_cas(addr, scope);
            }
        }
    }

    /// Handles a fence executed by the given lanes.
    pub fn on_fence(&mut self, lanes: impl IntoIterator<Item = u32>, scope: Scope) {
        if self.is_thread {
            for lane in lanes {
                self.thread_tables[lane as usize].on_fence(scope);
            }
        } else {
            self.warp_table.on_fence(scope);
        }
    }

    /// Handles an `atomicExch` split (unlock inference).
    pub fn on_exch(&mut self, lanes_addrs: &[(u32, u32)], scope: Scope) {
        if self.is_thread {
            for &(lane, addr) in lanes_addrs {
                self.thread_tables[lane as usize].on_exch(addr, scope);
            }
        } else {
            for &(_, addr) in lanes_addrs {
                self.warp_table.on_exch(addr, scope);
            }
        }
    }

    /// Bloom summary of locks held by `lane` (falls back to the warp table
    /// until per-thread locking is inferred).
    #[must_use]
    pub fn summary(&self, lane: u32) -> u16 {
        if self.is_thread {
            self.thread_tables[lane as usize].summary()
        } else {
            self.warp_table.summary()
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn cas_then_fence_holds_lock() {
        let mut t = LockTable::default();
        t.on_cas(0x100, Scope::Device);
        assert_eq!(t.held(), 0, "CAS alone does not hold the lock");
        t.on_fence(Scope::Device);
        assert_eq!(t.held(), 1, "fence activates the lock");
        assert_ne!(t.summary(), 0);
    }

    #[test]
    fn exch_releases_lock() {
        let mut t = LockTable::default();
        t.on_cas(0x100, Scope::Device);
        t.on_fence(Scope::Device);
        t.on_exch(0x100, Scope::Device);
        assert_eq!(t.held(), 0);
        assert_eq!(t.summary(), 0);
    }

    #[test]
    fn exch_without_fence_still_releases() {
        // §6.3: "even if a programmer misses a threadfence, we will infer
        // the atomicExch as unlock".
        let mut t = LockTable::default();
        t.on_cas(0x100, Scope::Device);
        t.on_exch(0x100, Scope::Device);
        assert!(t.entries().iter().all(|e| !e.valid));
    }

    #[test]
    fn block_fence_does_not_activate_device_lock() {
        let mut t = LockTable::default();
        t.on_cas(0x100, Scope::Device);
        t.on_fence(Scope::Block);
        assert_eq!(
            t.held(),
            0,
            "block fence must not activate a device-scope lock"
        );
        t.on_fence(Scope::Device);
        assert_eq!(t.held(), 1);
    }

    #[test]
    fn device_fence_activates_block_lock() {
        // "matching or narrower scope" (§6.3).
        let mut t = LockTable::default();
        t.on_cas(0x100, Scope::Block);
        t.on_fence(Scope::Device);
        assert_eq!(t.held(), 1);
    }

    #[test]
    fn table_holds_three_locks_and_evicts_round_robin() {
        let mut t = LockTable::default();
        for addr in [0x10, 0x20, 0x30] {
            t.on_cas(addr, Scope::Device);
        }
        t.on_fence(Scope::Device);
        assert_eq!(t.held(), 3);
        // Fourth lock evicts the oldest slot.
        t.on_cas(0x40, Scope::Device);
        let hashes: Vec<u32> = t.entries().iter().map(|e| e.hash).collect();
        assert!(hashes.contains(&lock_hash(0x40)));
        assert!(!hashes.contains(&lock_hash(0x10)));
    }

    #[test]
    fn repeated_cas_on_same_lock_is_idempotent() {
        let mut t = LockTable::default();
        // A spinning CAS retries many times before acquiring.
        for _ in 0..100 {
            t.on_cas(0x100, Scope::Device);
        }
        let valid = t.entries().iter().filter(|e| e.valid).count();
        assert_eq!(valid, 1);
    }

    #[test]
    fn single_lane_cas_keeps_warp_level_protocol() {
        let mut w = WarpLockState::default();
        w.on_cas(&[(0, 0x100)], Scope::Device);
        assert!(!w.is_thread());
        w.on_fence([0u32], Scope::Device);
        // Every lane of the warp reports the warp lock.
        assert_ne!(w.summary(0), 0);
        assert_ne!(w.summary(17), 0);
    }

    #[test]
    fn multi_lane_cas_escalates_to_per_thread() {
        let mut w = WarpLockState::default();
        // Two lanes CAS different locks simultaneously (Figure 9).
        w.on_cas(&[(0, 0x100), (1, 0x200)], Scope::Device);
        assert!(w.is_thread());
        w.on_fence([0u32, 1u32], Scope::Device);
        let s0 = w.summary(0);
        let s1 = w.summary(1);
        assert_ne!(s0, 0);
        assert_ne!(s1, 0);
        assert_eq!(s0 & s1, 0, "distinct per-thread locks must not intersect");
        assert_eq!(w.summary(2), 0, "lane 2 holds nothing");
    }

    #[test]
    fn is_thread_is_never_unset() {
        let mut w = WarpLockState::default();
        w.on_cas(&[(0, 0x100), (1, 0x200)], Scope::Device);
        assert!(w.is_thread());
        w.on_exch(&[(0, 0x100), (1, 0x200)], Scope::Device);
        w.on_cas(&[(0, 0x100)], Scope::Device);
        assert!(
            w.is_thread(),
            "§6.3: the detector never reverts to per-warp locks"
        );
    }

    #[test]
    fn bloom_bits_set_at_most_two_bits() {
        for addr in (0..10_000u32).step_by(97) {
            let bits = bloom_bits(lock_hash(addr));
            let n = bits.count_ones();
            assert!(n == 1 || n == 2, "addr {addr}: {n} bits");
        }
    }

    #[test]
    fn distinct_locks_usually_have_disjoint_blooms() {
        // Not a guarantee (it's a Bloom filter) — but the common case must
        // hold or R5 would miss everything.
        let mut disjoint = 0;
        let total = 100;
        for i in 0..total {
            let a = bloom_bits(lock_hash(0x1000 + i * 4));
            let b = bloom_bits(lock_hash(0x9000 + i * 4));
            if a & b == 0 {
                disjoint += 1;
            }
        }
        assert!(disjoint > total / 2, "only {disjoint}/{total} disjoint");
    }
}
