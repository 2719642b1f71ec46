//! # gpu-sim: the GPU substrate for the iGUARD reproduction
//!
//! A functional, cycle-accounting simulator of the CUDA execution model:
//! grids, threadblocks, 32-lane warps, lockstep and Independent Thread
//! Scheduling (ITS), scoped atomics and fences with *real scoped
//! visibility*, block and warp barriers, shared scratchpad, and a
//! per-instruction cost model.
//!
//! The original iGUARD (SOSP '21) runs on physical NVIDIA hardware and
//! attaches to SASS via NVBit. Neither exists here, so this crate is the
//! substitute substrate: kernels are written in a SASS-like IR (see
//! [`asm::KernelBuilder`]) and instrumentation tools attach through the
//! [`hook::Hook`] trait, observing exactly what an NVBit tool observes —
//! every dynamic memory access and synchronization operation, with operands
//! and active masks, without recompiling the workload.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::prelude::*;
//!
//! // __global__ void scale(int* a) { a[tid] *= 3; }
//! let mut b = KernelBuilder::new("scale");
//! let tid = b.special(Special::GlobalTid);
//! let base = b.param(0);
//! let off = b.mul(tid, 4u32);
//! let addr = b.add(base, off);
//! let v = b.ld(addr, 0);
//! let v3 = b.mul(v, 3u32);
//! b.st(addr, 0, v3);
//! let kernel = b.build();
//!
//! let mut gpu = Gpu::new(GpuConfig::default());
//! let buf = gpu.alloc(64).unwrap();
//! gpu.write_slice(buf, &[1, 2, 3, 4]);
//! gpu.launch(&kernel, 1, 4, &[buf], &mut NullHook).unwrap();
//! assert_eq!(gpu.read_slice(buf, 4), vec![3, 6, 9, 12]);
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod disasm;
pub mod error;
pub mod hook;
pub mod ir;
pub mod kernel;
pub mod machine;
pub mod mem;
pub mod paged;
pub mod sched;
pub mod stream;
pub mod timing;

/// Convenient glob import for workload and tool authors.
pub mod prelude {
    pub use crate::asm::{KernelBuilder, Label};
    pub use crate::error::SimError;
    pub use crate::hook::{
        AccessKind, ExecMode, Hook, LaneAccess, LaunchInfo, MemAccess, NullHook, SyncEvent,
    };
    pub use crate::ir::{
        AluOp, AtomOp, CmpOp, Instr, Operand, Reg, Scope, Space, Special, WARP_SIZE,
    };
    pub use crate::kernel::Kernel;
    pub use crate::machine::{Gpu, GpuConfig, LaunchStats};
    pub use crate::sched::{
        Decision, EnumeratingScheduler, LaunchContext, RandomScheduler, RecordingScheduler,
        ReplayScheduler, ScheduleTrace, Scheduler,
    };
    pub use crate::timing::{Clock, CostCategory, CostModel, COST_CATEGORIES};
}
