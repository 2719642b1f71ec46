//! Static inspection of loaded kernel objects — the `nvbit_get_instrs`
//! analogue. Tools use this to reason about a binary before execution
//! (e.g. Barracuda's refusal to handle multi-file PTX, or a tool deciding
//! which opcode classes to instrument).

use gpu_sim::ir::{Instr, Scope};
use gpu_sim::kernel::Kernel;

/// Static opcode census of one kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCensus {
    /// Total static instructions.
    pub total: usize,
    /// Global loads.
    pub global_loads: usize,
    /// Global stores.
    pub global_stores: usize,
    /// Atomics, any scope.
    pub atomics: usize,
    /// Atomics with block scope (the class Barracuda cannot handle).
    pub block_scope_atomics: usize,
    /// Fences, any scope.
    pub fences: usize,
    /// `__syncthreads()`.
    pub block_barriers: usize,
    /// `__syncwarp()` (the class pre-ITS tools cannot handle).
    pub warp_barriers: usize,
    /// Shared-memory accesses (outside iGUARD's global-memory focus).
    pub shared_accesses: usize,
}

/// Walks a kernel's static code and classifies every instruction.
#[must_use]
pub fn census(kernel: &Kernel) -> KernelCensus {
    let mut c = KernelCensus {
        total: kernel.code.len(),
        ..KernelCensus::default()
    };
    for instr in &kernel.code {
        match instr {
            Instr::Ld { space, .. } => {
                if instr.is_global_access() {
                    c.global_loads += 1;
                } else {
                    let _ = space;
                    c.shared_accesses += 1;
                }
            }
            Instr::St { .. } => {
                if instr.is_global_access() {
                    c.global_stores += 1;
                } else {
                    c.shared_accesses += 1;
                }
            }
            Instr::Atom { scope, .. } => {
                c.atomics += 1;
                if *scope == Scope::Block {
                    c.block_scope_atomics += 1;
                }
            }
            Instr::Membar { .. } => c.fences += 1,
            Instr::BarSync => c.block_barriers += 1,
            Instr::BarWarp => c.warp_barriers += 1,
            _ => {}
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;

    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("census_me");
        b.shared(4);
        let base = b.param(0);
        let tid = b.special(Special::Tid);
        let v = b.ld(base, 0);
        b.st(base, 1, v);
        let soff = b.mul(tid, 4u32);
        let s = b.ld_shared(soff, 0);
        b.st_shared(soff, 0, s);
        let one = b.imm(1);
        let _ = b.atomic_add(Scope::Block, base, 2, one);
        let _ = b.atomic_add(Scope::Device, base, 3, one);
        b.membar(Scope::Block);
        b.membar(Scope::Device);
        b.syncthreads();
        b.syncwarp();
        b.build()
    }

    #[test]
    fn census_counts_every_class() {
        let c = census(&kernel());
        assert_eq!(c.global_loads, 1);
        assert_eq!(c.global_stores, 1);
        assert_eq!(c.shared_accesses, 2);
        assert_eq!(c.atomics, 2);
        assert_eq!(c.block_scope_atomics, 1);
        assert_eq!(c.fences, 2);
        assert_eq!(c.block_barriers, 1);
        assert_eq!(c.warp_barriers, 1);
    }

    /// A tool that keeps [`crate::Tool::instrument`]'s default predicate.
    struct Plain;

    impl crate::Tool for Plain {}

    #[test]
    fn instrumentation_points_exclude_alu_and_shared() {
        use crate::Tool;
        let k = kernel();
        let map = Plain.instrument(&k);
        assert_eq!(map.len(), k.code.len());
        let pts: Vec<usize> = (0..map.len()).filter(|&pc| map[pc]).collect();
        // 2 global accesses + 2 atomics + 2 fences + 2 barriers.
        assert_eq!(pts.len(), 8);
        for pc in pts {
            let i = &k.code[pc];
            assert!(i.is_global_access() || i.is_sync());
        }
    }
}
