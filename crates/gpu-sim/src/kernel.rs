//! Loaded kernel objects.
//!
//! A [`Kernel`] is the simulator's analogue of a SASS function inside a CUDA
//! binary: a flat instruction array plus optional debug annotations. The
//! instrumentation layer attaches to `Kernel`s after they are "loaded",
//! without access to or recompilation of their source — the same contract
//! NVBit has with real binaries.

use crate::ir::Instr;
use std::sync::Arc;

/// A kernel ready to be launched on the simulated GPU.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Human-readable kernel name (mangled name analogue). Interned as
    /// `Arc<str>` so launches, instrumentation caches, and race reports
    /// share one allocation instead of cloning `String`s per access.
    pub name: Arc<str>,
    /// Flat instruction stream; branch targets index into this array.
    pub code: Vec<Instr>,
    /// Words of `__shared__` scratchpad each block needs.
    pub shared_words: usize,
    /// Optional per-instruction source annotation ("line info"); present when
    /// the workload was "compiled with debug info". Race reports quote it.
    pub lines: Vec<Option<String>>,
    /// Highest register the code names, plus one (see [`Kernel::num_regs`]).
    num_regs: usize,
}

impl Kernel {
    /// Creates a kernel from a raw instruction stream with no debug info.
    ///
    /// # Panics
    /// Panics if `code` is empty or if any branch target is out of bounds —
    /// a malformed binary is a programming error in the workload, not a
    /// runtime condition.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>, code: Vec<Instr>, shared_words: usize) -> Self {
        let lines = vec![None; code.len()];
        let mut k = Kernel {
            name: name.into(),
            code,
            shared_words,
            lines,
            num_regs: 0,
        };
        k.validate();
        k
    }

    /// Checks the branch targets and sizes the register file.
    fn validate(&mut self) {
        assert!(
            !self.code.is_empty(),
            "kernel `{}` has no instructions",
            self.name
        );
        // The machine keeps one `u32` pc per lane.
        assert!(
            u32::try_from(self.code.len()).is_ok(),
            "kernel `{}` has more than 2^32 instructions",
            self.name
        );
        for (pc, instr) in self.code.iter().enumerate() {
            if let Some(r) = instr.max_reg() {
                self.num_regs = self.num_regs.max(r.0 as usize + 1);
            }
            if let Some(t) = instr.branch_target() {
                assert!(
                    t < self.code.len(),
                    "kernel `{}`: branch at pc {pc} targets {t}, beyond {} instructions",
                    self.name,
                    self.code.len()
                );
            }
        }
    }

    /// The source annotation for `pc`, if debug info is present.
    #[must_use]
    pub fn line(&self, pc: usize) -> Option<&str> {
        self.lines.get(pc).and_then(|l| l.as_deref())
    }

    /// Registers a thread of this kernel needs: the highest register any
    /// instruction names, plus one. The machine's register file and the
    /// static analysis' abstract state are sized by it, so every `Reg` a
    /// raw instruction stream can hold is in range by construction.
    #[must_use]
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;

    #[test]
    fn kernel_validates_branch_targets() {
        let k = Kernel::new("ok", vec![Instr::Bra { target: 1 }, Instr::Exit], 0);
        assert_eq!(k.code.len(), 2);
        assert_eq!(k.line(0), None);
    }

    #[test]
    #[should_panic(expected = "targets 9")]
    fn kernel_rejects_wild_branch() {
        let _ = Kernel::new("bad", vec![Instr::Bra { target: 9 }, Instr::Exit], 0);
    }

    #[test]
    #[should_panic(expected = "no instructions")]
    fn kernel_rejects_empty_code() {
        let _ = Kernel::new("empty", vec![], 0);
    }
}
