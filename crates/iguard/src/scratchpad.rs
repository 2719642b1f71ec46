//! Scratchpad (shared-memory) race detection — the *extension* class.
//!
//! The paper deliberately scopes iGUARD to global memory: scratchpad races
//! are the domain of earlier tools (NVIDIA's Racecheck, GRace, GMRace —
//! §4). This module closes that gap with iGUARD's own machinery, as the
//! natural "complete tool" extension: per-(block, word) shadow state with
//! the same last-accessor identity + barrier/warp-barrier counters, and
//! the same ITS awareness no scratchpad tool of the paper's era had.
//!
//! Shared memory is private to a block, so the check set collapses to the
//! intra-block subset of Table 2: program order (P3), warp-synced access
//! (P4), barrier-separated access (P5), and the ITS (R2) / intra-block
//! (R3, without fences — scratchpad code synchronizes with barriers) race
//! classes.

use std::collections::HashMap;

use gpu_sim::hook::{AccessKind, LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::ir::{Instr, Space};
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::Tool;

use crate::checks::RaceKind;

/// Parallel cycles per scratchpad check, one per shared-memory warp split.
const SHARED_CHECK_COST: u64 = 16;

/// One reported scratchpad race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedRace {
    /// Kernel name (interned).
    pub kernel: std::sync::Arc<str>,
    /// pc of the second access.
    pub pc: usize,
    /// Byte offset within the block's scratchpad.
    pub offset: u32,
    /// Block in which the race occurred.
    pub block: u32,
    /// ITS (same warp) or intra-block (cross warp).
    pub kind: RaceKind,
    /// Source annotation, when available.
    pub line: Option<String>,
}

#[derive(Debug, Clone, Copy)]
struct Shadow {
    tid: u32,
    warp: u32,
    /// Block-barrier count at access time.
    bar: u32,
    /// Warp-barrier count (of the accessor's warp) at access time.
    warp_bar: u32,
    modified: bool,
}

/// The Racecheck-class scratchpad detector, built as an `nvbit-sim` tool.
#[derive(Debug, Default)]
pub struct ScratchpadGuard {
    /// (block, shared word) → last accessor / last writer.
    last_access: HashMap<(u32, u32), Shadow>,
    last_write: HashMap<(u32, u32), Shadow>,
    /// Barrier epochs per block; warp-barrier epochs per global warp.
    bar: HashMap<u32, u32>,
    warp_bar: HashMap<u32, u32>,
    races: Vec<SharedRace>,
    seen: std::collections::HashSet<(usize, bool)>,
    /// Dynamic shared accesses observed.
    pub accesses: u64,
}

impl ScratchpadGuard {
    /// A fresh detector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Races found so far.
    #[must_use]
    pub fn races(&self) -> &[SharedRace] {
        &self.races
    }

    fn check(&mut self, access: &MemAccess<'_>, offset: u32, tid: u32, lane: u32, is_write: bool) {
        let block = access.block_id;
        let key = (block, offset / 4);
        let bar = *self.bar.get(&block).unwrap_or(&0);
        let wbar = *self.warp_bar.get(&access.global_warp).unwrap_or(&0);

        // For writes, conflict with the last accessor; for reads, with the
        // last writer (same md selection as the global detector).
        let md = if is_write {
            self.last_access.get(&key)
        } else {
            self.last_write.get(&key)
        };
        if let Some(prev) = md.copied() {
            let conflicting = is_write || prev.modified;
            let same_thread = prev.tid == tid;
            let barrier_between = prev.bar != bar;
            let same_warp = prev.warp == access.global_warp;
            let warp_sync_between = same_warp && prev.warp_bar != wbar;
            let converged = same_warp && access.active_mask & (1 << (prev.tid % 32)) != 0;
            if conflicting && !same_thread && !barrier_between && !warp_sync_between && !converged {
                let kind = if same_warp {
                    RaceKind::IntraWarp
                } else {
                    RaceKind::IntraBlock
                };
                if self.seen.insert((access.pc, is_write)) {
                    self.races.push(SharedRace {
                        kernel: access.kernel.name.clone(),
                        pc: access.pc,
                        offset,
                        block,
                        kind,
                        line: access.kernel.line(access.pc).map(str::to_owned),
                    });
                }
            }
        }

        let shadow = Shadow {
            tid,
            warp: access.global_warp,
            bar,
            warp_bar: wbar,
            modified: is_write,
        };
        self.last_access.insert(key, shadow);
        if is_write {
            self.last_write.insert(key, shadow);
        }
        let _ = lane;
    }
}

impl Tool for ScratchpadGuard {
    fn wants(&self, instr: &Instr) -> bool {
        // Instrument shared-memory accesses and synchronization only.
        match instr {
            Instr::Ld { space, .. } | Instr::St { space, .. } => *space == Space::Shared,
            _ => instr.is_sync(),
        }
    }

    fn at_launch(&mut self, _info: &LaunchInfo, _clock: &mut Clock) {
        self.last_access.clear();
        self.last_write.clear();
        self.bar.clear();
        self.warp_bar.clear();
    }

    fn on_mem(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        if access.space != Space::Shared {
            return;
        }
        clock.charge(CostCategory::Detection, SHARED_CHECK_COST);
        self.accesses += access.lanes.len() as u64;
        let is_write = !matches!(access.kind, AccessKind::Load);
        let lanes: Vec<(u32, u32, u32)> = access
            .lanes
            .iter()
            .map(|l| (l.tid_in_block, l.lane, l.addr))
            .collect();
        for (tid, lane, addr) in lanes {
            self.check(access, addr, tid, lane, is_write);
        }
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, _clock: &mut Clock) {
        match event {
            SyncEvent::BlockBarrier { block_id } => {
                *self.bar.entry(*block_id).or_insert(0) += 1;
            }
            SyncEvent::WarpBarrier { global_warp, .. } => {
                *self.warp_bar.entry(*global_warp).or_insert(0) += 1;
            }
            SyncEvent::Fence { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;
    use nvbit_sim::Instrumented;

    /// Shared-memory handoff across warps; `sync` controls the barrier.
    fn shared_handoff(sync: bool) -> Kernel {
        let mut b = KernelBuilder::new(if sync { "sh_ok" } else { "sh_racy" });
        b.shared(8);
        let tid = b.special(Special::Tid);
        // Thread 40 (warp 1) writes sdata[1].
        let is40 = b.eq(tid, 40u32);
        let after = b.fwd_label();
        b.bra_ifnot(is40, after);
        let v = b.imm(9);
        let four = b.imm(4);
        b.st_shared(four, 0, v);
        b.bind(after);
        if sync {
            b.syncthreads();
        }
        // Thread 0 (warp 0) reads sdata[1].
        let is0 = b.eq(tid, 0u32);
        let fin = b.fwd_label();
        b.bra_ifnot(is0, fin);
        let four = b.imm(4);
        let _ = b.ld_shared(four, 0);
        b.bind(fin);
        b.build()
    }

    fn run(k: &Kernel, grid: u32, block: u32) -> Instrumented<ScratchpadGuard> {
        let mut gpu = Gpu::new(GpuConfig {
            seed: 5,
            ..GpuConfig::default()
        });
        let mut tool = Instrumented::new(ScratchpadGuard::new());
        gpu.launch(k, grid, block, &[], &mut tool).unwrap();
        tool
    }

    #[test]
    fn missing_syncthreads_on_scratchpad_is_detected() {
        let t = run(&shared_handoff(false), 1, 64);
        let races = t.tool().races();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind, RaceKind::IntraBlock);
    }

    #[test]
    fn barriered_scratchpad_handoff_is_clean() {
        let t = run(&shared_handoff(true), 1, 64);
        assert!(t.tool().races().is_empty());
    }

    #[test]
    fn scratchpad_its_race_detected_with_warp_granularity() {
        // The Figure 2/8 pattern on *shared* memory: lanes 1 and 0 of one
        // warp, no __syncwarp. The tools of the paper's era could not see
        // this (no ITS support); this extension does.
        fn kernel(syncwarp: bool) -> Kernel {
            let mut b = KernelBuilder::new(if syncwarp {
                "sh_warp_ok"
            } else {
                "sh_warp_racy"
            });
            b.shared(8);
            let tid = b.special(Special::Tid);
            let is1 = b.eq(tid, 1u32);
            let after = b.fwd_label();
            b.bra_ifnot(is1, after);
            let v = b.imm(3);
            let four = b.imm(4);
            b.st_shared(four, 0, v);
            b.bind(after);
            if syncwarp {
                b.syncwarp();
            }
            let is0 = b.eq(tid, 0u32);
            let fin = b.fwd_label();
            b.bra_ifnot(is0, fin);
            let four = b.imm(4);
            let _ = b.ld_shared(four, 0);
            b.bind(fin);
            b.build()
        }
        let t = run(&kernel(false), 1, 32);
        let races = t.tool().races();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind, RaceKind::IntraWarp);

        let t = run(&kernel(true), 1, 32);
        assert!(t.tool().races().is_empty(), "__syncwarp orders the handoff");
    }

    #[test]
    fn per_block_scratchpads_do_not_alias() {
        // Every block's thread 0 writes its own sdata[0]: same offset,
        // different scratchpads — never a race.
        let mut b = KernelBuilder::new("sh_per_block");
        b.shared(4);
        let tid = b.special(Special::Tid);
        let is0 = b.eq(tid, 0u32);
        let fin = b.fwd_label();
        b.bra_ifnot(is0, fin);
        let zero = b.imm(0);
        b.st_shared(zero, 0, tid);
        b.bind(fin);
        let k = b.build();
        let t = run(&k, 4, 32);
        assert!(t.tool().races().is_empty());
    }

    #[test]
    fn the_global_detector_stays_scoped_to_global_memory() {
        // iGUARD proper must NOT report the scratchpad race — the paper's
        // explicit scoping (§4).
        let k = shared_handoff(false);
        let mut gpu = Gpu::new(GpuConfig {
            seed: 5,
            ..GpuConfig::default()
        });
        let mut tool = Instrumented::new(crate::Iguard::default());
        gpu.launch(&k, 1, 64, &[], &mut tool).unwrap();
        assert_eq!(tool.tool().unique_races(), 0);
    }

    #[test]
    fn correct_tree_reduction_on_scratchpad_is_clean() {
        let mut b = KernelBuilder::new("sh_reduce");
        b.shared(64);
        let tid = b.special(Special::Tid);
        let soff = b.mul(tid, 4u32);
        b.st_shared(soff, 0, tid);
        b.syncthreads();
        let stride = b.imm(32);
        let top = b.here();
        let done = b.eq(stride, 0u32);
        let exit_l = b.fwd_label();
        b.bra_if(done, exit_l);
        let active = b.lt(tid, stride);
        let skip = b.fwd_label();
        b.bra_ifnot(active, skip);
        let mine = b.ld_shared(soff, 0);
        let oidx = b.add(tid, stride);
        let ooff = b.mul(oidx, 4u32);
        let theirs = b.ld_shared(ooff, 0);
        let sum = b.add(mine, theirs);
        b.st_shared(soff, 0, sum);
        b.bind(skip);
        b.syncthreads();
        let half = b.shr(stride, 1u32);
        b.mov(stride, half);
        b.bra(top);
        b.bind(exit_l);
        let k = b.build();
        let t = run(&k, 2, 64);
        assert!(t.tool().races().is_empty(), "{:?}", t.tool().races());
    }
}
