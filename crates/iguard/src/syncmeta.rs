//! Synchronization metadata (§6.1): the live counters that record each
//! thread's / warp's / block's most recent synchronization operations.
//!
//! - one **block barrier counter** per threadblock (8-bit, wraps),
//!   incremented on every released `__syncthreads()`;
//! - one **warp barrier counter** per warp (6-bit), incremented on every
//!   released `__syncwarp()` — the counter that is *unique to iGUARD* and
//!   enables ITS race detection;
//! - two **fence counters per thread** (6-bit each), one per scope, because
//!   CUDA defines fence semantics per thread and ITS lets threads of a warp
//!   diverge (§6.1).
//!
//! Total size in the paper is ~2 MB; here it is sized per launch.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bitfield::{wrapping_inc, BLK_BAR_BITS, FENCE_BITS, WARP_BAR_BITS};
use gpu_sim::ir::{Scope, WARP_SIZE};

/// Per-launch synchronization counters.
#[derive(Debug, Clone)]
pub struct SyncMetadata {
    blk_bar: Vec<u8>,
    warp_bar: Vec<u8>,
    dev_fence: Vec<u8>,
    blk_fence: Vec<u8>,
    warps_per_block: u32,
}

impl SyncMetadata {
    /// Sizes counters for a grid of `blocks` × `warps_per_block` warps.
    #[must_use]
    pub fn new(blocks: u32, warps_per_block: u32) -> Self {
        let warps = (blocks * warps_per_block) as usize;
        let threads = warps * WARP_SIZE;
        SyncMetadata {
            blk_bar: vec![0; blocks as usize],
            warp_bar: vec![0; warps],
            dev_fence: vec![0; threads],
            blk_fence: vec![0; threads],
            warps_per_block,
        }
    }

    /// Global thread slot for (`global_warp`, `lane`).
    fn thread_slot(&self, global_warp: u32, lane: u32) -> usize {
        global_warp as usize * WARP_SIZE + lane as usize
    }

    /// Records a released `__syncthreads()` in `block`.
    pub fn block_barrier(&mut self, block: u32) {
        let c = &mut self.blk_bar[block as usize];
        *c = wrapping_inc(*c, BLK_BAR_BITS);
    }

    /// Records a released `__syncwarp()` in `global_warp`.
    pub fn warp_barrier(&mut self, global_warp: u32) {
        let c = &mut self.warp_bar[global_warp as usize];
        *c = wrapping_inc(*c, WARP_BAR_BITS);
    }

    /// Records a scoped fence executed by thread (`global_warp`, `lane`).
    pub fn fence(&mut self, scope: Scope, global_warp: u32, lane: u32) {
        let slot = self.thread_slot(global_warp, lane);
        let c = match scope {
            Scope::Device => &mut self.dev_fence[slot],
            Scope::Block => &mut self.blk_fence[slot],
        };
        *c = wrapping_inc(*c, FENCE_BITS);
    }

    /// Current block barrier counter of `block`.
    #[must_use]
    pub fn blk_bar(&self, block: u32) -> u8 {
        self.blk_bar[block as usize]
    }

    /// Current warp barrier counter of `global_warp`.
    #[must_use]
    pub fn warp_bar(&self, global_warp: u32) -> u8 {
        self.warp_bar[global_warp as usize]
    }

    /// Current device-scope fence counter of a thread.
    #[must_use]
    pub fn dev_fence(&self, global_warp: u32, lane: u32) -> u8 {
        self.dev_fence[self.thread_slot(global_warp, lane)]
    }

    /// Current block-scope fence counter of a thread.
    #[must_use]
    pub fn blk_fence(&self, global_warp: u32, lane: u32) -> u8 {
        self.blk_fence[self.thread_slot(global_warp, lane)]
    }

    /// The (device-scope, block-scope) fence counters of `global_warp`'s
    /// 32 threads, indexed by lane: one slice per warp split instead of
    /// two slot computations per lane.
    #[must_use]
    pub fn warp_fences(&self, global_warp: u32) -> (&[u8], &[u8]) {
        let first = self.thread_slot(global_warp, 0);
        let lanes = first..first + WARP_SIZE;
        (&self.dev_fence[lanes.clone()], &self.blk_fence[lanes])
    }

    /// Warps per block of the running kernel (constant per launch, §6.2).
    #[must_use]
    pub fn warps_per_block(&self) -> u32 {
        self.warps_per_block
    }

    /// Snapshot of one thread's counters, as copied into memory metadata
    /// on each access.
    #[must_use]
    pub fn snapshot(&self, global_warp: u32, lane: u32) -> crate::bitfield::AccessorInfo {
        let block = global_warp / self.warps_per_block.max(1);
        crate::bitfield::AccessorInfo {
            warp_id: global_warp,
            lane,
            dev_fence: self.dev_fence(global_warp, lane),
            blk_fence: self.blk_fence(global_warp, lane),
            blk_bar: self.blk_bar(block),
            warp_bar: self.warp_bar(global_warp),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_increment() {
        let mut s = SyncMetadata::new(2, 2);
        assert_eq!(s.blk_bar(0), 0);
        s.block_barrier(0);
        assert_eq!(s.blk_bar(0), 1);
        assert_eq!(s.blk_bar(1), 0, "other block unaffected");

        s.warp_barrier(3);
        assert_eq!(s.warp_bar(3), 1);
        assert_eq!(s.warp_bar(0), 0);
    }

    #[test]
    fn fence_counters_are_per_thread_and_per_scope() {
        let mut s = SyncMetadata::new(1, 1);
        s.fence(Scope::Device, 0, 5);
        assert_eq!(s.dev_fence(0, 5), 1);
        assert_eq!(s.blk_fence(0, 5), 0, "scopes tracked separately");
        assert_eq!(s.dev_fence(0, 6), 0, "fences are per thread (§6.1)");
    }

    #[test]
    fn block_barrier_wraps_at_256() {
        let mut s = SyncMetadata::new(1, 1);
        for _ in 0..256 {
            s.block_barrier(0);
        }
        assert_eq!(
            s.blk_bar(0),
            0,
            "the §6.7 wrap-around at exactly 256 syncthreads"
        );
    }

    #[test]
    fn fence_counter_wraps_at_64() {
        let mut s = SyncMetadata::new(1, 1);
        for _ in 0..64 {
            s.fence(Scope::Block, 0, 0);
        }
        assert_eq!(s.blk_fence(0, 0), 0);
    }

    #[test]
    fn snapshot_copies_all_relevant_counters() {
        let mut s = SyncMetadata::new(2, 2);
        s.block_barrier(1); // block of warp 2 and 3
        s.warp_barrier(3);
        s.fence(Scope::Device, 3, 7);
        let snap = s.snapshot(3, 7);
        assert_eq!(snap.warp_id, 3);
        assert_eq!(snap.lane, 7);
        assert_eq!(snap.blk_bar, 1);
        assert_eq!(snap.warp_bar, 1);
        assert_eq!(snap.dev_fence, 1);
        assert_eq!(snap.blk_fence, 0);
    }
}
