//! The instrumentation interface exposed by the simulated GPU.
//!
//! This is the point where `nvbit-sim` (and through it, the detectors)
//! attaches to executing kernels. The contract mirrors NVBit's: the tool
//! observes every dynamic global-memory access and synchronization operation
//! with full operand and active-mask information, and may charge extra
//! cycles to the [`Clock`] — the simulation analogue of injected SASS
//! callbacks slowing the kernel down.
//!
//! Hooks observe one *warp-split execution* at a time: one instruction
//! executed by the subset of a warp's lanes that are converged at that PC.
//! (NVBit tools receive per-lane calls and re-aggregate with warp intrinsics
//! such as `__activemask`; delivering the aggregate is equivalent and is
//! precisely the form iGUARD's coalescing optimization wants, §6.5.)

use crate::ir::{AtomOp, Scope};
use crate::kernel::Kernel;
use crate::timing::Clock;

/// Execution mode of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Pre-Volta lockstep SIMT: a warp's threads reconverge eagerly and step
    /// together; implicit warp-level barrier after every instruction.
    Lockstep,
    /// Independent Thread Scheduling (Volta+): diverged threads of a warp
    /// interleave freely.
    Its,
}

/// What kind of global-memory access a [`MemAccess`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Load,
    Store,
    Atomic { op: AtomOp, scope: Scope },
}

impl AccessKind {
    /// Whether the access writes memory (stores and all atomics — the paper
    /// treats atomics as stores for detection purposes, §6.2).
    #[must_use]
    pub fn is_write(&self) -> bool {
        !matches!(self, AccessKind::Load)
    }
}

/// One lane's slice of a warp-split memory access.
#[derive(Debug, Clone, Copy)]
pub struct LaneAccess {
    /// Lane index within the warp (0..32). The 5-bit ThreadID of Figure 4.
    pub lane: u32,
    /// Thread index within the block.
    pub tid_in_block: u32,
    /// Byte address of the 4-byte word accessed.
    pub addr: u32,
}

/// A dynamic global-memory access by a warp split.
///
/// `__shared__` accesses execute and are costed but fire no event: the
/// paper scopes iGUARD to global memory (§4 leaves scratchpad races to
/// prior tools) and compares its baselines the same way ("we disable
/// shared memory race detection in Barracuda since iGUARD focuses only on
/// global memory", §7).
#[derive(Debug)]
pub struct MemAccess<'a> {
    /// Kernel being executed.
    pub kernel: &'a Kernel,
    /// Program counter of the instruction.
    pub pc: usize,
    /// Load / store / scoped atomic.
    pub kind: AccessKind,
    /// Block executing the split.
    pub block_id: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Globally unique warp id (`block_id * warps_per_block + warp_in_block`).
    pub global_warp: u32,
    /// Bitmask over the warp's 32 lanes that execute this instruction
    /// (`__activemask()` as the injected callback would see it).
    pub active_mask: u32,
    /// Whether the access is `volatile` (L1-bypassing). CUDA's `volatile`
    /// is the flag-polling idiom; detectors treat such accesses as part of
    /// the synchronization protocol rather than as data accesses.
    pub volatile: bool,
    /// The participating lanes, ascending by lane id.
    pub lanes: &'a [LaneAccess],
    /// Warps per block for this launch (constant per kernel; used by the
    /// detector to derive block ids from warp ids, §6.2).
    pub warps_per_block: u32,
    /// SM the block is resident on.
    pub sm: u32,
    /// Scheduler step at which the access executes; detectors use it to
    /// estimate metadata contention windows.
    pub step: u64,
}

/// A dynamic synchronization operation.
#[derive(Debug)]
pub enum SyncEvent<'a> {
    /// A released `__syncthreads()` barrier (fired once per release).
    BlockBarrier { block_id: u32 },
    /// A released `__syncwarp()` barrier (fired once per warp release).
    WarpBarrier {
        block_id: u32,
        warp_in_block: u32,
        global_warp: u32,
    },
    /// A scoped `__threadfence[_block]()` executed by a warp split; the
    /// fence is per-thread (§6.1), so every lane in `tids` fenced.
    Fence {
        scope: Scope,
        block_id: u32,
        global_warp: u32,
        /// `(lane, tid_in_block)` of each fencing thread.
        tids: &'a [(u32, u32)],
        /// Active mask of the split executing the fence.
        active_mask: u32,
        pc: usize,
        step: u64,
    },
}

/// Static launch parameters delivered to the tool at kernel entry.
#[derive(Debug, Clone)]
pub struct LaunchInfo {
    pub kernel_name: std::sync::Arc<str>,
    pub grid_dim: u32,
    pub block_dim: u32,
    pub warps_per_block: u32,
    pub total_threads: u32,
    pub total_warps: u32,
    /// Logical device-memory bytes still free after application allocations
    /// (drives the detector's prefault decision, §6.1).
    pub free_device_bytes: u64,
    /// Logical bytes allocated by the application before launch.
    pub app_footprint_bytes: u64,
    /// Logical device-memory capacity in bytes (Titan RTX: 24 GB).
    pub device_capacity_bytes: u64,
    /// Words of real backing storage behind global memory (bounds the
    /// functional metadata table a detector needs).
    pub backing_words: usize,
}

/// A tool attached to the GPU. All methods default to no-ops so simple tools
/// override only what they observe.
pub trait Hook {
    /// Called once per kernel launch, before any instruction executes.
    fn on_kernel_launch(&mut self, _info: &LaunchInfo, _clock: &mut Clock) {}

    /// Called after the grid's implicit final barrier.
    fn on_kernel_end(&mut self, _info: &LaunchInfo, _clock: &mut Clock) {}

    /// Called before each dynamic global-memory access.
    fn on_mem_access(&mut self, _access: &MemAccess<'_>, _clock: &mut Clock) {}

    /// Called after each dynamic global-memory *load* with the value the
    /// lane observed. Only fired when `GpuConfig::record_load_values` (or
    /// weak visibility, which implies it) is enabled — the litmus oracle
    /// needs observed values to evaluate final-state assertions, but the
    /// production detectors are value-blind and skip the callback cost.
    fn on_load_value(
        &mut self,
        _block_id: u32,
        _tid_in_block: u32,
        _addr: u32,
        _pc: usize,
        _value: u32,
    ) {
    }

    /// Called on each dynamic synchronization operation.
    fn on_sync(&mut self, _event: &SyncEvent<'_>, _clock: &mut Clock) {}
}

/// The trivial tool: observe nothing. Used for native (uninstrumented) runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl Hook for NullHook {}

impl<H: Hook + ?Sized> Hook for &mut H {
    fn on_kernel_launch(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        (**self).on_kernel_launch(info, clock);
    }

    fn on_kernel_end(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        (**self).on_kernel_end(info, clock);
    }

    fn on_mem_access(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        (**self).on_mem_access(access, clock);
    }

    fn on_load_value(
        &mut self,
        block_id: u32,
        tid_in_block: u32,
        addr: u32,
        pc: usize,
        value: u32,
    ) {
        (**self).on_load_value(block_id, tid_in_block, addr, pc, value);
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, clock: &mut Clock) {
        (**self).on_sync(event, clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_write_classification() {
        assert!(!AccessKind::Load.is_write());
        assert!(AccessKind::Store.is_write());
        assert!(AccessKind::Atomic {
            op: AtomOp::Add,
            scope: Scope::Block
        }
        .is_write());
    }
}
