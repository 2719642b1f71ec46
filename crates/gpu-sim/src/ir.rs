//! The SASS-like instruction set executed by the simulator.
//!
//! Workload kernels are written against this IR (usually through
//! [`crate::asm::KernelBuilder`]). The instrumentation layer (`nvbit-sim`)
//! observes executed instructions at this level, mirroring how NVBit observes
//! SASS on real hardware: the IR is the "binary" — workloads never need to be
//! recompiled for a detector to attach to them.
//!
//! The machine is a per-thread 32-bit register machine. All memory operations
//! are word (4-byte) sized and word aligned, matching iGUARD's 4-byte
//! metadata granularity.

/// A per-thread general-purpose 32-bit register.
///
/// A thread owns as many as its kernel names (`Kernel::num_regs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// Registers `KernelBuilder` will allocate per thread (NVIDIA SASS allows
/// up to 255; the builder's SSA-ish style leans on this). A raw
/// instruction stream may name any `Reg` a `u8` holds.
pub const NUM_REGS: usize = 255;

/// Number of threads in a warp (CUDA fixes this at 32 on all shipped GPUs).
pub const WARP_SIZE: usize = 32;

/// Either a register or an immediate; the right-hand operand of most ALU ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Read the value of a register.
    Reg(Reg),
    /// A 32-bit immediate.
    Imm(u32),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v as u32)
    }
}

/// Built-in values a thread can query about its own position in the grid,
/// mirroring CUDA's special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Special {
    /// Thread index within its block (`threadIdx.x`).
    Tid,
    /// Block index within the grid (`blockIdx.x`).
    BlockId,
    /// Threads per block (`blockDim.x`).
    BlockDim,
    /// Blocks in the grid (`gridDim.x`).
    GridDim,
    /// Lane index within the warp (`%laneid`).
    LaneId,
    /// Warp index within the block.
    WarpInBlock,
    /// Globally unique warp index (`blockId * warps_per_block + warpInBlock`).
    GlobalWarpId,
    /// Globally unique thread index (`blockId * blockDim + tid`).
    GlobalTid,
    /// Active mask of the currently executing warp split (`__activemask()`).
    ActiveMask,
}

/// Scope qualifier for atomics and fences (CUDA `_block` / default device).
///
/// The paper ignores `system` scope (single-GPU focus, §2.1); so do we.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// Visible only within the issuing threadblock (`cta` scope).
    Block,
    /// Visible to every thread on the GPU (`gpu` scope, the CUDA default).
    Device,
}

/// Memory space of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// GPU global memory (device HBM/GDDR); the space iGUARD watches.
    Global,
    /// Per-block scratchpad (`__shared__`); out of scope for the detector,
    /// exactly as the paper scopes iGUARD to global memory races.
    Shared,
}

/// Read-modify-write operation of an atomic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomOp {
    /// `atomicAdd`: returns old, stores `old + src`.
    Add,
    /// `atomicExch`: returns old, stores `src`.
    Exch,
    /// `atomicCAS`: returns old, stores `src` iff `old == cmp`.
    Cas,
    /// `atomicMin` on unsigned values.
    Min,
    /// `atomicMax` on unsigned values.
    Max,
    /// `atomicOr`.
    Or,
    /// `atomicAnd`.
    And,
}

/// Comparison predicate for [`Instr::Setp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Signed less-than.
    SLt,
    /// Signed greater-than.
    SGt,
}

/// Binary ALU operation for [`Instr::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    /// Unsigned division; divide-by-zero is a simulation fault.
    Div,
    /// Unsigned remainder; divide-by-zero is a simulation fault.
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// One instruction of the simulated ISA.
///
/// Branch targets are absolute instruction indices within the kernel; the
/// [`crate::asm::KernelBuilder`] resolves symbolic labels to indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd = op` (register move or immediate load).
    Mov { rd: Reg, src: Operand },
    /// `rd = special` (query thread/grid geometry).
    Read { rd: Reg, sp: Special },
    /// `rd = param[idx]` (kernel launch parameter).
    Param { rd: Reg, idx: u8 },
    /// `rd = ra <op> b`.
    Alu {
        op: AluOp,
        rd: Reg,
        ra: Reg,
        b: Operand,
    },
    /// `rd = (ra <cmp> b) ? 1 : 0`.
    Setp {
        op: CmpOp,
        rd: Reg,
        ra: Reg,
        b: Operand,
    },
    /// `rd = cond ? a : b` (select, used to avoid tiny divergent hammocks).
    Sel {
        rd: Reg,
        cond: Reg,
        a: Operand,
        b: Operand,
    },
    /// Unconditional branch to instruction `target`.
    Bra { target: usize },
    /// Branch to `target` iff `cond != 0`.
    BraIf { cond: Reg, target: usize },
    /// Branch to `target` iff `cond == 0`.
    BraIfNot { cond: Reg, target: usize },
    /// `rd = [addr + offset]`; word load.
    ///
    /// `volatile` bypasses the (simulated) non-coherent L1, like CUDA
    /// `volatile` — required for spin-wait loops on flags.
    Ld {
        rd: Reg,
        addr: Reg,
        offset: i32,
        space: Space,
        volatile: bool,
    },
    /// `[addr + offset] = val`; word store.
    St {
        addr: Reg,
        offset: i32,
        val: Reg,
        space: Space,
        volatile: bool,
    },
    /// Scoped atomic on global memory: `rd = RMW(addr + offset)`.
    ///
    /// For [`AtomOp::Cas`], `cmp` holds the compare value and `src` the
    /// swap value; other ops ignore `cmp`.
    Atom {
        op: AtomOp,
        scope: Scope,
        rd: Reg,
        addr: Reg,
        offset: i32,
        src: Reg,
        cmp: Reg,
    },
    /// Scoped memory fence (`__threadfence_block` / `__threadfence`).
    Membar { scope: Scope },
    /// Threadblock barrier (`__syncthreads`). Includes block-fence semantics.
    BarSync,
    /// Warp barrier (`__syncwarp`). Synchronizes non-exited warp threads.
    BarWarp,
    /// Thread exits the kernel.
    Exit,
    /// No operation (padding; also used by instrumentation tests).
    Nop,
}

impl Instr {
    /// Whether this instruction accesses global memory (the class of
    /// instruction iGUARD instruments for metadata update + race checks).
    #[must_use]
    pub fn is_global_access(&self) -> bool {
        match self {
            Instr::Ld { space, .. } | Instr::St { space, .. } => *space == Space::Global,
            Instr::Atom { .. } => true,
            _ => false,
        }
    }

    /// Whether this instruction is a synchronization operation that iGUARD
    /// instruments for synchronization-metadata update.
    #[must_use]
    pub fn is_sync(&self) -> bool {
        matches!(self, Instr::Membar { .. } | Instr::BarSync | Instr::BarWarp)
    }

    /// The highest-numbered register this instruction reads or writes, if
    /// it names any.
    #[must_use]
    pub fn max_reg(&self) -> Option<Reg> {
        let op = |o: Operand| match o {
            Operand::Reg(r) => Some(r.0),
            Operand::Imm(_) => None,
        };
        let max = match *self {
            Instr::Mov { rd, src } => op(src).max(Some(rd.0)),
            Instr::Read { rd, .. } | Instr::Param { rd, .. } => Some(rd.0),
            Instr::Alu { rd, ra, b, .. } | Instr::Setp { rd, ra, b, .. } => {
                op(b).max(Some(rd.0.max(ra.0)))
            }
            Instr::Sel { rd, cond, a, b } => op(a).max(op(b)).max(Some(rd.0.max(cond.0))),
            Instr::BraIf { cond, .. } | Instr::BraIfNot { cond, .. } => Some(cond.0),
            Instr::Ld { rd, addr, .. } => Some(rd.0.max(addr.0)),
            Instr::St { addr, val, .. } => Some(addr.0.max(val.0)),
            Instr::Atom {
                rd, addr, src, cmp, ..
            } => Some(rd.0.max(addr.0).max(src.0).max(cmp.0)),
            Instr::Bra { .. }
            | Instr::Membar { .. }
            | Instr::BarSync
            | Instr::BarWarp
            | Instr::Exit
            | Instr::Nop => None,
        };
        max.map(Reg)
    }

    /// Branch target (absolute instruction index) of a control-transfer
    /// instruction, `None` for straight-line instructions.
    #[must_use]
    pub fn branch_target(&self) -> Option<usize> {
        match self {
            Instr::Bra { target }
            | Instr::BraIf { target, .. }
            | Instr::BraIfNot { target, .. } => Some(*target),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_access_classification() {
        let ld_g = Instr::Ld {
            rd: Reg(0),
            addr: Reg(1),
            offset: 0,
            space: Space::Global,
            volatile: false,
        };
        let ld_s = Instr::Ld {
            rd: Reg(0),
            addr: Reg(1),
            offset: 0,
            space: Space::Shared,
            volatile: false,
        };
        let st_g = Instr::St {
            addr: Reg(1),
            offset: 0,
            val: Reg(0),
            space: Space::Global,
            volatile: false,
        };
        let atom = Instr::Atom {
            op: AtomOp::Add,
            scope: Scope::Block,
            rd: Reg(0),
            addr: Reg(1),
            offset: 0,
            src: Reg(2),
            cmp: Reg(3),
        };
        assert!(ld_g.is_global_access());
        assert!(!ld_s.is_global_access());
        assert!(st_g.is_global_access());
        assert!(atom.is_global_access());
        assert!(!Instr::Nop.is_global_access());
    }

    #[test]
    fn sync_classification() {
        assert!(Instr::BarSync.is_sync());
        assert!(Instr::BarWarp.is_sync());
        assert!(Instr::Membar {
            scope: Scope::Device
        }
        .is_sync());
        assert!(!Instr::Exit.is_sync());
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::Reg(Reg(3)));
        assert_eq!(Operand::from(7u32), Operand::Imm(7));
        assert_eq!(Operand::from(-1i32), Operand::Imm(u32::MAX));
    }

    #[test]
    fn scope_ordering_block_is_narrower() {
        assert!(Scope::Block < Scope::Device);
    }
}
