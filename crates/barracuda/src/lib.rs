//! # barracuda: the CPU-side baseline detector
//!
//! A re-implementation of the architecture of **Barracuda** (Eizenberg et
//! al., PLDI 2017), the closest prior work the iGUARD paper compares
//! against (§4, §7): GPU kernels are instrumented to *log* every memory
//! and synchronization event into a serialized channel, and the actual
//! race detection — vector-clock happens-before — runs on the CPU.
//!
//! The point of this crate is a faithful *baseline*, including the
//! limitations the paper documents:
//!
//! | Limitation | Where modelled |
//! |---|---|
//! | no scoped (`_block`) atomics | [`supports`] rejects the binary |
//! | no `__syncwarp` / ITS        | [`supports`]; warp events dropped; lockstep assumption in [`hb`] |
//! | PTX embedding fails for multi-file libraries | [`supports`] with [`BinaryKind::MultiFile`] |
//! | 50 % memory reservation ⇒ OOM on large footprints | [`detector`] launch check |
//! | serialized CPU detection ⇒ 10–1000× overheads | serial ship + CPU charges |
//! | may not terminate (`interac`) | serial-cycle budget in [`Barracuda::finish`] |

#![forbid(unsafe_code)]

pub mod curd;
pub mod detector;
pub mod event;
pub mod hb;
pub mod vc;

pub use curd::{Curd, CurdPath};
pub use detector::{Barracuda, BarracudaConfig, BarracudaFailure};
pub use hb::CpuRace;

use gpu_sim::kernel::Kernel;
use nvbit_sim::inspect;

/// How the workload's binary is packaged, for the PTX-embedding gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryKind {
    /// A single self-contained module: Barracuda can embed its PTX.
    SingleFile,
    /// A large multi-file library (Gunrock, LonestarGPU, SlabHash, cuML):
    /// "it requires a single PTX file to be embedded in a binary. It
    /// cannot handle large, multi-file real-world GPU libraries" (§7.1).
    MultiFile,
}

impl BinaryKind {
    /// [`MultiFile`](BinaryKind::MultiFile) for a workload packaged as a
    /// multi-file library, else [`SingleFile`](BinaryKind::SingleFile).
    #[must_use]
    pub fn of(multi_file: bool) -> Self {
        if multi_file {
            BinaryKind::MultiFile
        } else {
            BinaryKind::SingleFile
        }
    }
}

/// Why Barracuda refuses a binary before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsupported {
    /// Contains scoped (`_block`) atomic operations (§4).
    ScopedAtomics,
    /// Contains `__syncwarp` (no ITS support, §4).
    WarpBarriers,
    /// Multi-file PTX cannot be embedded (§7.1).
    MultiFilePtx,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsupported::ScopedAtomics => write!(f, "scoped atomics unsupported"),
            Unsupported::WarpBarriers => write!(f, "warp-level barriers unsupported"),
            Unsupported::MultiFilePtx => write!(f, "cannot embed PTX for multi-file library"),
        }
    }
}

/// The front-end gate: can Barracuda run these kernels at all?
pub fn supports(kernels: &[&Kernel], kind: BinaryKind) -> Result<(), Unsupported> {
    if kind == BinaryKind::MultiFile {
        return Err(Unsupported::MultiFilePtx);
    }
    for k in kernels {
        let census = inspect::census(k);
        if census.block_scope_atomics > 0 {
            return Err(Unsupported::ScopedAtomics);
        }
        if census.warp_barriers > 0 {
            return Err(Unsupported::WarpBarriers);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;

    fn kernel_with_block_atomic() -> Kernel {
        let mut b = KernelBuilder::new("scoped");
        let base = b.param(0);
        let one = b.imm(1);
        let _ = b.atomic_add(Scope::Block, base, 0, one);
        b.build()
    }

    fn kernel_with_syncwarp() -> Kernel {
        let mut b = KernelBuilder::new("warped");
        b.syncwarp();
        b.build()
    }

    fn plain_kernel() -> Kernel {
        let mut b = KernelBuilder::new("plain");
        let base = b.param(0);
        let one = b.imm(1);
        let _ = b.atomic_add(Scope::Device, base, 0, one);
        b.syncthreads();
        b.membar(Scope::Device);
        b.build()
    }

    #[test]
    fn rejects_scoped_atomics() {
        let k = kernel_with_block_atomic();
        assert_eq!(
            supports(&[&k], BinaryKind::SingleFile),
            Err(Unsupported::ScopedAtomics)
        );
    }

    #[test]
    fn rejects_syncwarp() {
        let k = kernel_with_syncwarp();
        assert_eq!(
            supports(&[&k], BinaryKind::SingleFile),
            Err(Unsupported::WarpBarriers)
        );
    }

    #[test]
    fn rejects_multi_file_libraries() {
        let k = plain_kernel();
        assert_eq!(
            supports(&[&k], BinaryKind::MultiFile),
            Err(Unsupported::MultiFilePtx)
        );
    }

    #[test]
    fn accepts_traditional_kernels() {
        let k = plain_kernel();
        assert_eq!(supports(&[&k], BinaryKind::SingleFile), Ok(()));
    }
}
