//! An ergonomic assembler for the simulated ISA.
//!
//! [`KernelBuilder`] hands out virtual registers, resolves symbolic labels,
//! and records optional source annotations ("debug info") that the detector
//! quotes in race reports. Every workload in `crates/workloads` is written
//! with this builder.
//!
//! Two instruction styles are provided:
//! - *value style*: `let x = b.add(a, 1);` allocates a fresh destination
//!   register — convenient for straight-line expressions;
//! - *mutate style*: `b.assign_add(x, x, 1);` writes an existing register —
//!   required for loop counters and accumulators.

use crate::ir::{AluOp, AtomOp, CmpOp, Instr, Operand, Reg, Scope, Space, Special, NUM_REGS};
use crate::kernel::Kernel;

/// A forward-referencable branch target.
///
/// Create one with [`KernelBuilder::fwd_label`], branch to it, then pin it
/// with [`KernelBuilder::bind`]. Backward targets can be taken directly from
/// [`KernelBuilder::here`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Incrementally builds a [`Kernel`].
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    code: Vec<Instr>,
    lines: Vec<Option<String>>,
    shared_words: usize,
    next_reg: u8,
    labels: Vec<Option<usize>>,
    pending_line: Option<String>,
}

impl KernelBuilder {
    /// Starts a new kernel with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            code: Vec::new(),
            lines: Vec::new(),
            shared_words: 0,
            next_reg: 0,
            labels: Vec::new(),
            pending_line: None,
        }
    }

    /// Declares `words` of `__shared__` scratchpad per block.
    pub fn shared(&mut self, words: usize) -> &mut Self {
        self.shared_words = words;
        self
    }

    /// Allocates a fresh virtual register.
    ///
    /// # Panics
    /// Panics if the kernel exceeds [`NUM_REGS`] registers; like exceeding
    /// the register file on real hardware, this is a build-time error.
    pub fn reg(&mut self) -> Reg {
        assert!(
            (self.next_reg as usize) < NUM_REGS,
            "kernel `{}` exceeds {NUM_REGS} registers",
            self.name
        );
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Attaches a source annotation to the *next* emitted instruction.
    pub fn loc(&mut self, text: impl Into<String>) -> &mut Self {
        self.pending_line = Some(text.into());
        self
    }

    fn emit(&mut self, i: Instr) {
        self.code.push(i);
        self.lines.push(self.pending_line.take());
    }

    // ---- labels & control flow -------------------------------------------

    /// Declares a label to be bound later (forward branch target).
    pub fn fwd_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(
            slot.is_none(),
            "label bound twice in kernel `{}`",
            self.name
        );
        *slot = Some(self.code.len());
    }

    /// Creates a label bound to the current position (backward target).
    pub fn here(&mut self) -> Label {
        let l = self.fwd_label();
        self.bind(l);
        l
    }

    /// Unconditional branch.
    pub fn bra(&mut self, target: Label) {
        // Encode the label id; patched to a pc in `build`.
        self.emit(Instr::Bra { target: target.0 });
    }

    /// Branch if `cond != 0`.
    pub fn bra_if(&mut self, cond: Reg, target: Label) {
        self.emit(Instr::BraIf {
            cond,
            target: target.0,
        });
    }

    /// Branch if `cond == 0`.
    pub fn bra_ifnot(&mut self, cond: Reg, target: Label) {
        self.emit(Instr::BraIfNot {
            cond,
            target: target.0,
        });
    }

    // ---- moves & specials -------------------------------------------------

    /// `rd = src`.
    pub fn mov(&mut self, rd: Reg, src: impl Into<Operand>) {
        self.emit(Instr::Mov {
            rd,
            src: src.into(),
        });
    }

    /// Fresh register holding an immediate.
    pub fn imm(&mut self, v: u32) -> Reg {
        let rd = self.reg();
        self.mov(rd, v);
        rd
    }

    /// Fresh register holding a special value (tid, blockId, ...).
    pub fn special(&mut self, sp: Special) -> Reg {
        let rd = self.reg();
        self.emit(Instr::Read { rd, sp });
        rd
    }

    /// Fresh register holding launch parameter `idx`.
    pub fn param(&mut self, idx: u8) -> Reg {
        let rd = self.reg();
        self.emit(Instr::Param { rd, idx });
        rd
    }

    // ---- ALU: mutate style --------------------------------------------------

    /// `rd = ra <op> b`.
    pub fn assign(&mut self, op: AluOp, rd: Reg, ra: Reg, b: impl Into<Operand>) {
        self.emit(Instr::Alu {
            op,
            rd,
            ra,
            b: b.into(),
        });
    }

    /// `rd = ra + b`.
    pub fn assign_add(&mut self, rd: Reg, ra: Reg, b: impl Into<Operand>) {
        self.assign(AluOp::Add, rd, ra, b);
    }

    /// `rd = (ra <op> b) ? 1 : 0`.
    pub fn assign_cmp(&mut self, op: CmpOp, rd: Reg, ra: Reg, b: impl Into<Operand>) {
        self.emit(Instr::Setp {
            op,
            rd,
            ra,
            b: b.into(),
        });
    }

    // ---- ALU: value style ---------------------------------------------------

    fn value(&mut self, op: AluOp, ra: Reg, b: impl Into<Operand>) -> Reg {
        let rd = self.reg();
        self.assign(op, rd, ra, b);
        rd
    }

    /// Fresh register = `a + b`.
    pub fn add(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Add, a, b)
    }

    /// Fresh register = `a - b`.
    pub fn sub(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Sub, a, b)
    }

    /// Fresh register = `a * b`.
    pub fn mul(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Mul, a, b)
    }

    /// Fresh register = `a / b` (unsigned).
    pub fn div(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Div, a, b)
    }

    /// Fresh register = `a % b` (unsigned).
    pub fn rem(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Rem, a, b)
    }

    /// Fresh register = `min(a, b)` (unsigned).
    pub fn min(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Min, a, b)
    }

    /// Fresh register = `max(a, b)` (unsigned).
    pub fn max(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Max, a, b)
    }

    /// Fresh register = `a & b`.
    pub fn and(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::And, a, b)
    }

    /// Fresh register = `a | b`.
    pub fn or(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Or, a, b)
    }

    /// Fresh register = `a ^ b`.
    pub fn xor(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Xor, a, b)
    }

    /// Fresh register = `a << b`.
    pub fn shl(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Shl, a, b)
    }

    /// Fresh register = `a >> b` (logical).
    pub fn shr(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.value(AluOp::Shr, a, b)
    }

    fn cmp(&mut self, op: CmpOp, a: Reg, b: impl Into<Operand>) -> Reg {
        let rd = self.reg();
        self.assign_cmp(op, rd, a, b);
        rd
    }

    /// Fresh register = `a == b`.
    pub fn eq(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Eq, a, b)
    }

    /// Fresh register = `a != b`.
    pub fn ne(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Ne, a, b)
    }

    /// Fresh register = `a < b` (unsigned).
    pub fn lt(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Lt, a, b)
    }

    /// Fresh register = `a >= b` (unsigned).
    pub fn ge(&mut self, a: Reg, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Ge, a, b)
    }

    /// Fresh register = `cond ? a : b`.
    pub fn sel(&mut self, cond: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let rd = self.reg();
        self.emit(Instr::Sel {
            rd,
            cond,
            a: a.into(),
            b: b.into(),
        });
        rd
    }

    // ---- memory -------------------------------------------------------------

    /// Fresh register = global `[addr + off]`.
    pub fn ld(&mut self, addr: Reg, off: i32) -> Reg {
        let rd = self.reg();
        self.ld_at(rd, addr, off);
        rd
    }

    /// `rd = global [addr + off]`.
    pub fn ld_at(&mut self, rd: Reg, addr: Reg, off: i32) {
        self.emit(Instr::Ld {
            rd,
            addr,
            offset: off * 4,
            space: Space::Global,
            volatile: false,
        });
    }

    /// Fresh register = volatile global `[addr + off]` (bypasses L1).
    pub fn ld_volatile(&mut self, addr: Reg, off: i32) -> Reg {
        let rd = self.reg();
        self.emit(Instr::Ld {
            rd,
            addr,
            offset: off * 4,
            space: Space::Global,
            volatile: true,
        });
        rd
    }

    /// Global `[addr + off] = val`.
    pub fn st(&mut self, addr: Reg, off: i32, val: Reg) {
        self.emit(Instr::St {
            addr,
            offset: off * 4,
            val,
            space: Space::Global,
            volatile: false,
        });
    }

    /// Volatile global `[addr + off] = val` (write-through to L2).
    pub fn st_volatile(&mut self, addr: Reg, off: i32, val: Reg) {
        self.emit(Instr::St {
            addr,
            offset: off * 4,
            val,
            space: Space::Global,
            volatile: true,
        });
    }

    /// Fresh register = shared `[addr + off]`.
    pub fn ld_shared(&mut self, addr: Reg, off: i32) -> Reg {
        let rd = self.reg();
        self.emit(Instr::Ld {
            rd,
            addr,
            offset: off * 4,
            space: Space::Shared,
            volatile: false,
        });
        rd
    }

    /// Shared `[addr + off] = val`.
    pub fn st_shared(&mut self, addr: Reg, off: i32, val: Reg) {
        self.emit(Instr::St {
            addr,
            offset: off * 4,
            val,
            space: Space::Shared,
            volatile: false,
        });
    }

    /// Fresh register = old value of scoped atomic RMW at global `[addr + off]`.
    pub fn atom(&mut self, op: AtomOp, scope: Scope, addr: Reg, off: i32, src: Reg) -> Reg {
        let rd = self.reg();
        self.emit(Instr::Atom {
            op,
            scope,
            rd,
            addr,
            offset: off * 4,
            src,
            cmp: src,
        });
        rd
    }

    /// `atomicAdd[_block]`: fresh register = old value.
    pub fn atomic_add(&mut self, scope: Scope, addr: Reg, off: i32, src: Reg) -> Reg {
        self.atom(AtomOp::Add, scope, addr, off, src)
    }

    /// `atomicExch[_block]`: fresh register = old value.
    pub fn atomic_exch(&mut self, scope: Scope, addr: Reg, off: i32, src: Reg) -> Reg {
        self.atom(AtomOp::Exch, scope, addr, off, src)
    }

    /// `atomicCAS[_block]`: fresh register = old value; stores `src` iff
    /// old == `cmp`.
    pub fn atomic_cas(&mut self, scope: Scope, addr: Reg, off: i32, cmp: Reg, src: Reg) -> Reg {
        let rd = self.reg();
        self.emit(Instr::Atom {
            op: AtomOp::Cas,
            scope,
            rd,
            addr,
            offset: off * 4,
            src,
            cmp,
        });
        rd
    }

    // ---- synchronization -----------------------------------------------------

    /// `__threadfence_block()` / `__threadfence()` by scope.
    pub fn membar(&mut self, scope: Scope) {
        self.emit(Instr::Membar { scope });
    }

    /// `__syncthreads()`.
    pub fn syncthreads(&mut self) {
        self.emit(Instr::BarSync);
    }

    /// `__syncwarp()`.
    pub fn syncwarp(&mut self) {
        self.emit(Instr::BarWarp);
    }

    /// Thread exit.
    pub fn exit(&mut self) {
        self.emit(Instr::Exit);
    }

    /// Spin-lock acquire per the CUDA guidebook idiom the paper keys lock
    /// inference on: `while(atomicCAS(lock,0,1) != 0); threadfence(scope)`.
    pub fn lock(&mut self, scope: Scope, lock_addr: Reg, off: i32) {
        let zero = self.imm(0);
        let one = self.imm(1);
        let spin = self.here();
        self.loc("lock: atomicCAS spin");
        let old = self.atomic_cas(scope, lock_addr, off, zero, one);
        self.bra_if(old, spin);
        self.loc("lock: acquire fence");
        self.membar(scope);
    }

    /// Spin-lock release idiom: `threadfence(scope); atomicExch(lock, 0)`.
    pub fn unlock(&mut self, scope: Scope, lock_addr: Reg, off: i32) {
        self.loc("unlock: release fence");
        self.membar(scope);
        let zero = self.imm(0);
        self.loc("unlock: atomicExch");
        let _ = self.atomic_exch(scope, lock_addr, off, zero);
    }

    /// Finalizes the kernel, resolving all labels.
    ///
    /// # Panics
    /// Panics if any referenced label was never bound, or if the code does
    /// not end in a reachable `Exit`.
    #[must_use]
    pub fn build(mut self) -> Kernel {
        // Ensure every thread terminates even if the author forgot.
        if !matches!(self.code.last(), Some(Instr::Exit)) {
            self.emit(Instr::Exit);
        }
        let resolve = |id: usize, labels: &[Option<usize>], name: &str| -> usize {
            labels[id].unwrap_or_else(|| panic!("kernel `{name}`: unbound label {id}"))
        };
        for instr in &mut self.code {
            match instr {
                Instr::Bra { target } => *target = resolve(*target, &self.labels, &self.name),
                Instr::BraIf { target, .. } => {
                    *target = resolve(*target, &self.labels, &self.name);
                }
                Instr::BraIfNot { target, .. } => {
                    *target = resolve(*target, &self.labels, &self.name);
                }
                _ => {}
            }
        }
        let mut k = Kernel::new(self.name, self.code, self.shared_words);
        k.lines = self.lines;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_straight_line_kernel() {
        let mut b = KernelBuilder::new("k");
        let t = b.special(Special::Tid);
        let x = b.add(t, 1);
        let base = b.param(0);
        let a = b.add(base, t);
        b.st(a, 0, x);
        b.exit();
        let k = b.build();
        assert_eq!(&*k.name, "k");
        assert!(k.code.len() >= 5);
    }

    #[test]
    fn forward_label_resolves() {
        let mut b = KernelBuilder::new("fwd");
        let t = b.special(Special::Tid);
        let skip = b.fwd_label();
        b.bra_if(t, skip);
        let _ = b.imm(42);
        b.bind(skip);
        b.exit();
        let k = b.build();
        let target = k
            .code
            .iter()
            .find_map(|i| match i {
                Instr::BraIf { target, .. } => Some(*target),
                _ => None,
            })
            .expect("has branch");
        // The branch must land on the Exit, past the Mov.
        assert!(matches!(k.code[target], Instr::Exit));
    }

    #[test]
    fn backward_label_makes_loop() {
        let mut b = KernelBuilder::new("loop");
        let i = b.imm(0);
        let top = b.here();
        b.assign_add(i, i, 1);
        let done = b.ge(i, 3u32);
        b.bra_ifnot(done, top);
        b.exit();
        let k = b.build();
        assert!(k.code.iter().any(|i| matches!(i, Instr::BraIfNot { .. })));
    }

    #[test]
    fn implicit_exit_appended() {
        let mut b = KernelBuilder::new("noexit");
        let _ = b.imm(1);
        let k = b.build();
        assert!(matches!(k.code.last(), Some(Instr::Exit)));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut b = KernelBuilder::new("bad");
        let l = b.fwd_label();
        b.bra(l);
        let _ = b.build();
    }

    #[test]
    fn loc_annotates_next_instruction() {
        let mut b = KernelBuilder::new("dbg");
        b.loc("store result");
        let r = b.imm(7);
        let base = b.param(0);
        b.loc("the store");
        b.st(base, 0, r);
        let k = b.build();
        assert_eq!(k.line(0), Some("store result"));
        let st_pc = k
            .code
            .iter()
            .position(|i| matches!(i, Instr::St { .. }))
            .expect("store present");
        assert_eq!(k.line(st_pc), Some("the store"));
    }

    #[test]
    fn lock_unlock_emit_guidebook_idiom() {
        let mut b = KernelBuilder::new("lk");
        let l = b.param(0);
        b.lock(Scope::Device, l, 0);
        b.unlock(Scope::Device, l, 0);
        let k = b.build();
        let has_cas = k.code.iter().any(|i| {
            matches!(
                i,
                Instr::Atom {
                    op: AtomOp::Cas,
                    ..
                }
            )
        });
        let has_exch = k.code.iter().any(|i| {
            matches!(
                i,
                Instr::Atom {
                    op: AtomOp::Exch,
                    ..
                }
            )
        });
        let fences = k
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Membar { .. }))
            .count();
        assert!(has_cas && has_exch);
        assert_eq!(fences, 2);
    }
}
