//! # static-an: static pre-analysis that prunes instrumentation
//!
//! The classic hybrid-detector speedup: prove accesses race-free *before*
//! launch and instrument only the rest (GPUArmor applies the same
//! compile-time filtering shape to memory-safety checks). This crate
//! classifies every global-memory instrumentation point of a [`Kernel`] as
//!
//! - **provably-safe** — the dynamic detector can never (correctly) report
//!   a race at this point, so the callback may be skipped entirely;
//! - **unknown** — instrument exactly as today.
//!
//! ## The two rules (both kernel-global)
//!
//! 1. **Read-only kernel** — no global store or atomic anywhere: every
//!    global load is safe. Immune to parameter aliasing.
//! 2. **Atomic-protected kernel** — every global *write* is a device-scope
//!    atomic: all global points are safe. Atomic/atomic and load/atomic
//!    pairs at device scope are non-racy for both the detector (P6/P6a)
//!    and the schedule-enumeration oracle, regardless of aliasing.
//!
//! Both read only the instruction kinds, never an address, so a verdict
//! holds for every launch geometry and parameter value.
//!
//! The rules are intentionally all-or-nothing per kernel: either every
//! global point is safe or none is. This makes pruning trivially
//! behavior-preserving — a pruned access can never perturb metadata that a
//! still-instrumented access would later read.

#![forbid(unsafe_code)]

use gpu_sim::ir::{Instr, Scope};
use gpu_sim::kernel::Kernel;

/// Why a point is provably safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeReason {
    /// The kernel performs no global writes at all.
    ReadOnlyKernel,
    /// Every global write in the kernel is a device-scope atomic.
    AtomicProtected,
}

/// Verdict for one static instrumentation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    Safe(SafeReason),
    Unknown,
}

impl PointClass {
    /// Whether the point may be skipped by the instrumentation layer.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        matches!(self, PointClass::Safe(_))
    }
}

/// Per-kernel classification of every static instrumentation point.
#[derive(Debug)]
pub struct AccessClassification {
    /// Per-pc verdict; `Unknown` for non-memory pcs.
    classes: Vec<PointClass>,
    /// Static global-memory instrumentation points.
    pub mem_points: usize,
    /// Points classified `Safe`.
    pub safe_points: usize,
    /// Points left `Unknown` (instrumented as today).
    pub unknown_points: usize,
}

impl AccessClassification {
    /// Verdict at `pc` (always `Unknown` beyond the code or off a memory
    /// instruction).
    #[must_use]
    pub fn class_at(&self, pc: usize) -> PointClass {
        self.classes.get(pc).copied().unwrap_or(PointClass::Unknown)
    }

    /// Whether every global-memory point is provably safe (vacuously true
    /// for kernels without global accesses).
    #[must_use]
    pub fn all_mem_safe(&self) -> bool {
        self.safe_points == self.mem_points
    }
}

/// Classifies every instrumentation point of `kernel`.
#[must_use]
pub fn analyze(kernel: &Kernel) -> AccessClassification {
    let points: Vec<(usize, &Instr)> = kernel
        .code
        .iter()
        .enumerate()
        .filter(|(_, instr)| instr.is_global_access())
        .collect();
    let verdict = if points.iter().all(|(_, i)| matches!(i, Instr::Ld { .. })) {
        Some(SafeReason::ReadOnlyKernel)
    } else if points.iter().all(|(_, i)| {
        matches!(
            i,
            Instr::Ld { .. }
                | Instr::Atom {
                    scope: Scope::Device,
                    ..
                }
        )
    }) {
        Some(SafeReason::AtomicProtected)
    } else {
        None
    };

    let mut classes = vec![PointClass::Unknown; kernel.code.len()];
    if let Some(reason) = verdict {
        for &(pc, _) in &points {
            classes[pc] = PointClass::Safe(reason);
        }
    }
    let mem_points = points.len();
    let safe_points = if verdict.is_some() { mem_points } else { 0 };
    AccessClassification {
        classes,
        mem_points,
        safe_points,
        unknown_points: mem_points - safe_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::asm::KernelBuilder;
    use gpu_sim::ir::Special;

    /// `out[0] += in[g]` at device scope: rule B proves both points safe.
    fn hist_kernel() -> Kernel {
        let mut b = KernelBuilder::new("hist");
        let input = b.param(0);
        let out = b.param(1);
        let g = b.special(Special::GlobalTid);
        let off = b.mul(g, 4u32);
        let a = b.add(input, off);
        let v = b.ld(a, 0);
        let _ = b.atomic_add(Scope::Device, out, 0, v);
        b.build()
    }

    #[test]
    fn read_only_kernel_is_all_safe() {
        let mut b = KernelBuilder::new("ro");
        let p = b.param(0);
        let q = b.param(1);
        let tid = b.special(Special::Tid);
        let off = b.mul(tid, 4u32);
        let a = b.add(p, off);
        let _ = b.ld(a, 0);
        let _ = b.ld(q, 7); // aliasing-immune: uniform read-only slot
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.mem_points, 2);
        assert_eq!(c.safe_points, 2);
        assert!(c.all_mem_safe());
        assert!(matches!(
            c.class_at(k.code.iter().position(Instr::is_global_access).unwrap()),
            PointClass::Safe(SafeReason::ReadOnlyKernel)
        ));
    }

    #[test]
    fn device_atomic_writes_protect_the_whole_kernel() {
        let k = hist_kernel();
        let c = analyze(&k);
        assert_eq!(c.mem_points, 2);
        assert_eq!(c.safe_points, 2);
        assert!(matches!(
            c.class_at(k.code.iter().position(Instr::is_global_access).unwrap()),
            PointClass::Safe(SafeReason::AtomicProtected)
        ));
    }

    #[test]
    fn block_scope_atomic_breaks_atomic_protection() {
        let mut b = KernelBuilder::new("k");
        let out = b.param(0);
        let one = b.imm(1);
        let tid = b.special(Special::Tid);
        let off = b.mul(tid, 4u32);
        let a = b.add(out, off);
        let _ = b.ld(a, 0);
        let _ = b.atomic_add(Scope::Block, a, 0, one);
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.safe_points, 0);
    }

    #[test]
    fn volatile_store_breaks_atomic_protection() {
        let mut b = KernelBuilder::new("k");
        let out = b.param(0);
        let one = b.imm(1);
        let _ = b.atomic_add(Scope::Device, out, 0, one);
        b.st_volatile(out, 1, one);
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.safe_points, 0);
    }

    #[test]
    fn empty_classification_for_alu_only_kernel() {
        let mut b = KernelBuilder::new("alu");
        let tid = b.special(Special::Tid);
        let _ = b.add(tid, 1u32);
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.mem_points, 0);
        assert!(c.all_mem_safe());
    }

    /// `Reg` wraps a `u8`, so a raw instruction stream can name r255 —
    /// one past what `KernelBuilder` allocates. The machine's register
    /// file is sized by the kernel, so the case runs instead of indexing
    /// out of bounds, and the classifier reads only instruction kinds.
    #[test]
    fn raw_kernel_naming_r255_launches_and_analyzes() {
        use gpu_sim::ir::{AluOp, Instr, Operand, Reg, Space};
        use gpu_sim::prelude::{Gpu, GpuConfig, NullHook};

        let (base, top) = (Reg(0), Reg(255));
        let code = vec![
            Instr::Param { rd: base, idx: 0 },
            Instr::Read {
                rd: top,
                sp: Special::GlobalTid,
            },
            Instr::Alu {
                op: AluOp::Mul,
                rd: top,
                ra: top,
                b: Operand::Imm(4),
            },
            Instr::Alu {
                op: AluOp::Add,
                rd: top,
                ra: top,
                b: Operand::Reg(base),
            },
            Instr::St {
                addr: top,
                offset: 0,
                val: top,
                space: Space::Global,
                volatile: false,
            },
            Instr::Exit,
        ];
        let k = Kernel::new("r255", code, 0);
        assert_eq!(k.num_regs(), 256);

        let mut gpu = Gpu::new(GpuConfig {
            mem_words: 1 << 12,
            ..GpuConfig::default()
        });
        let buf = gpu.alloc(40).unwrap();
        gpu.launch(&k, 1, 40, &[buf], &mut NullHook).unwrap();
        let want: Vec<u32> = (0..40).map(|i| buf + 4 * i).collect();
        assert_eq!(gpu.read_slice(buf, 40), want);

        let c = analyze(&k);
        assert_eq!(c.mem_points, 1);
        assert_eq!(c.unknown_points, 1, "a plain store defeats both rules");
    }
}
