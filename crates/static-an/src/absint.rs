//! Forward abstract interpretation of a kernel's register file.
//!
//! The domain tracks, per register, whether the value is a *linear form*
//! over the thread's coordinates:
//!
//! ```text
//! value = [param_p] + k_tid·tid + k_bb·(blockId·blockDim) + off
//! ```
//!
//! with at most one kernel parameter as a symbolic base. Everything the
//! domain cannot represent exactly (loop induction variables, values loaded
//! from memory, products of two unknowns) collapses to `Top`. Two extra
//! singleton elements track a *pure* `blockIdx` and `blockDim` so the common
//! `blockId*blockDim + tid` global-index idiom is recognized even when built
//! by hand instead of via [`gpu_sim::ir::Special::GlobalTid`].
//!
//! All arithmetic is exact `i64` arithmetic. The machine computes addresses
//! modulo 2³², so a linear form is only *congruent* to the machine value;
//! every consumer of these forms (the window rule, the region-disjointness
//! launch check) therefore re-derives absolute `[0, 2³²]` bounds before
//! relying on integer reasoning, and any coefficient overflowing `i64`
//! range during transfer collapses to `Top`.

use gpu_sim::ir::{AluOp, Instr, Operand, Reg, Special};
use gpu_sim::kernel::Kernel;

/// A linear form `[param] + k_tid·tid + k_bb·(blockId·blockDim) + off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lin {
    /// Symbolic base: a kernel launch parameter index, if any.
    pub param: Option<u8>,
    /// Coefficient of `threadIdx.x`.
    pub k_tid: i64,
    /// Coefficient of `blockIdx.x * blockDim.x`.
    pub k_bb: i64,
    /// Constant term (exact integer; congruent to the machine value mod 2³²).
    pub off: i64,
}

impl Lin {
    /// The constant `c`.
    #[must_use]
    pub fn constant(c: i64) -> Lin {
        Lin {
            param: None,
            k_tid: 0,
            k_bb: 0,
            off: c,
        }
    }

    /// Whether this form is a compile-time constant (no symbolic parts).
    #[must_use]
    pub fn is_const(&self) -> bool {
        self.param.is_none() && self.k_tid == 0 && self.k_bb == 0
    }

    /// Whether the value is identical for every thread of the launch
    /// (no tid or block components; the parameter base is launch-uniform).
    #[must_use]
    pub fn is_thread_uniform(&self) -> bool {
        self.k_tid == 0 && self.k_bb == 0
    }

    /// Whether the form is `base + s·globalTid + off` — the same coefficient
    /// on `tid` and `blockId·blockDim` makes it linear in the *global*
    /// thread index.
    #[must_use]
    pub fn gtid_stride(&self) -> Option<i64> {
        (self.k_tid == self.k_bb).then_some(self.k_tid)
    }
}

/// One abstract register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Unreachable / undefined (join identity). Never observed at a
    /// reachable program point: registers are zero-initialized.
    Bot,
    /// Anything.
    Top,
    /// Exactly `blockIdx.x`.
    Bid,
    /// Exactly `blockDim.x`.
    Bdim,
    /// A linear form.
    Lin(Lin),
}

impl AbsVal {
    fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Bot, x) | (x, AbsVal::Bot) => x,
            (a, b) if a == b => a,
            _ => AbsVal::Top,
        }
    }
}

/// Coefficient magnitude bound; anything larger collapses to `Top` so the
/// exact-integer transfer can never overflow `i64` in later additions.
const COEFF_LIMIT: i64 = 1 << 40;

fn bounded(l: Lin) -> AbsVal {
    if l.k_tid.abs() > COEFF_LIMIT || l.k_bb.abs() > COEFF_LIMIT || l.off.abs() > COEFF_LIMIT {
        AbsVal::Top
    } else {
        AbsVal::Lin(l)
    }
}

fn add(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Lin(x), AbsVal::Lin(y)) => {
            if x.param.is_some() && y.param.is_some() {
                return AbsVal::Top;
            }
            bounded(Lin {
                param: x.param.or(y.param),
                k_tid: x.k_tid + y.k_tid,
                k_bb: x.k_bb + y.k_bb,
                off: x.off + y.off,
            })
        }
        _ => AbsVal::Top,
    }
}

fn sub(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Lin(x), AbsVal::Lin(y)) => {
            // A parameter base cannot be cancelled: the subtrahend's base is
            // an unknown address, so the result is unrepresentable.
            if y.param.is_some() {
                return AbsVal::Top;
            }
            bounded(Lin {
                param: x.param,
                k_tid: x.k_tid - y.k_tid,
                k_bb: x.k_bb - y.k_bb,
                off: x.off - y.off,
            })
        }
        _ => AbsVal::Top,
    }
}

fn scale(x: AbsVal, c: i64) -> AbsVal {
    match x {
        AbsVal::Lin(l) => {
            if c == 1 {
                return AbsVal::Lin(l);
            }
            // Scaling a symbolic address base is unrepresentable.
            if l.param.is_some() {
                return AbsVal::Top;
            }
            let (Some(k_tid), Some(k_bb), Some(off)) = (
                l.k_tid.checked_mul(c),
                l.k_bb.checked_mul(c),
                l.off.checked_mul(c),
            ) else {
                return AbsVal::Top;
            };
            bounded(Lin {
                param: None,
                k_tid,
                k_bb,
                off,
            })
        }
        AbsVal::Bid | AbsVal::Bdim if c == 1 => x,
        _ => AbsVal::Top,
    }
}

fn mul(a: AbsVal, b: AbsVal) -> AbsVal {
    // blockId * blockDim (either order) is the block-base unit.
    match (a, b) {
        (AbsVal::Bid, AbsVal::Bdim) | (AbsVal::Bdim, AbsVal::Bid) => {
            return AbsVal::Lin(Lin {
                param: None,
                k_tid: 0,
                k_bb: 1,
                off: 0,
            });
        }
        _ => {}
    }
    match (a, b) {
        (AbsVal::Lin(x), y) if x.is_const() => scale(y, x.off),
        (x, AbsVal::Lin(y)) if y.is_const() => scale(x, y.off),
        _ => AbsVal::Top,
    }
}

type State = Vec<AbsVal>;

fn eval(st: &State, op: Operand) -> AbsVal {
    match op {
        Operand::Reg(Reg(r)) => st[r as usize],
        Operand::Imm(v) => AbsVal::Lin(Lin::constant(i64::from(v))),
    }
}

fn transfer(st: &mut State, instr: &Instr) {
    let set = |st: &mut State, rd: Reg, v: AbsVal| st[rd.0 as usize] = v;
    match *instr {
        Instr::Mov { rd, src } => {
            let v = eval(st, src);
            set(st, rd, v);
        }
        Instr::Read { rd, sp } => {
            let v = match sp {
                Special::Tid => AbsVal::Lin(Lin {
                    param: None,
                    k_tid: 1,
                    k_bb: 0,
                    off: 0,
                }),
                Special::GlobalTid => AbsVal::Lin(Lin {
                    param: None,
                    k_tid: 1,
                    k_bb: 1,
                    off: 0,
                }),
                Special::BlockId => AbsVal::Bid,
                Special::BlockDim => AbsVal::Bdim,
                _ => AbsVal::Top,
            };
            set(st, rd, v);
        }
        Instr::Param { rd, idx } => set(
            st,
            rd,
            AbsVal::Lin(Lin {
                param: Some(idx),
                k_tid: 0,
                k_bb: 0,
                off: 0,
            }),
        ),
        Instr::Alu { op, rd, ra, b } => {
            let a = st[ra.0 as usize];
            let bv = eval(st, b);
            let v = match op {
                AluOp::Add => add(a, bv),
                AluOp::Sub => sub(a, bv),
                AluOp::Mul => mul(a, bv),
                AluOp::Shl => match bv {
                    AbsVal::Lin(l) if l.is_const() && (0..32).contains(&l.off) => {
                        scale(a, 1i64 << l.off)
                    }
                    _ => AbsVal::Top,
                },
                _ => AbsVal::Top,
            };
            set(st, rd, v);
        }
        Instr::Setp { rd, .. } => set(st, rd, AbsVal::Top),
        Instr::Sel { rd, a, b, .. } => {
            let v = eval(st, a).join(eval(st, b));
            set(st, rd, v);
        }
        Instr::Ld { rd, .. } => set(st, rd, AbsVal::Top),
        Instr::Atom { rd, .. } => set(st, rd, AbsVal::Top),
        Instr::St { .. }
        | Instr::Bra { .. }
        | Instr::BraIf { .. }
        | Instr::BraIfNot { .. }
        | Instr::Membar { .. }
        | Instr::BarSync
        | Instr::BarWarp
        | Instr::Exit
        | Instr::Nop => {}
    }
}

/// Fixpoint result: the abstract *effective address* (base register form
/// plus the instruction's byte offset) of every reachable global-memory
/// access, indexed by pc.
#[derive(Debug)]
pub struct Dataflow {
    /// `addr_at[pc]` is `Some(form)` for every reachable global-access pc.
    pub addr_at: Vec<Option<AbsVal>>,
    /// Whether each pc is reachable from the entry.
    pub reached: Vec<bool>,
}

/// Runs the forward dataflow to fixpoint over the kernel's flat code array.
#[must_use]
pub fn run(kernel: &Kernel) -> Dataflow {
    let n = kernel.code.len();
    let mut in_states: Vec<Option<State>> = vec![None; n];
    // Registers are zero-initialized by the machine, so the entry state is
    // the exact constant 0 everywhere.
    in_states[0] = Some(vec![AbsVal::Lin(Lin::constant(0)); kernel.num_regs()]);
    let mut work: Vec<usize> = vec![0];
    let mut on_work = vec![false; n];
    on_work[0] = true;

    while let Some(pc) = work.pop() {
        on_work[pc] = false;
        let Some(st_in) = in_states[pc].clone() else {
            continue;
        };
        let instr = &kernel.code[pc];
        let mut out = st_in;
        transfer(&mut out, instr);
        let succs: [Option<usize>; 2] = match *instr {
            Instr::Bra { target } => [Some(target), None],
            Instr::BraIf { cond: _, target } | Instr::BraIfNot { cond: _, target } => {
                [Some(target), Some(pc + 1)]
            }
            Instr::Exit => [None, None],
            _ => [Some(pc + 1), None],
        };
        for succ in succs.into_iter().flatten() {
            if succ >= n {
                continue;
            }
            let changed = match &mut in_states[succ] {
                Some(cur) => {
                    let mut any = false;
                    for (c, o) in cur.iter_mut().zip(out.iter()) {
                        let j = c.join(*o);
                        if j != *c {
                            *c = j;
                            any = true;
                        }
                    }
                    any
                }
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
            };
            if changed && !on_work[succ] {
                on_work[succ] = true;
                work.push(succ);
            }
        }
    }

    let mut addr_at = vec![None; n];
    let mut reached = vec![false; n];
    for pc in 0..n {
        let Some(st) = &in_states[pc] else { continue };
        reached[pc] = true;
        let instr = &kernel.code[pc];
        if !instr.is_global_access() {
            continue;
        }
        let (addr, offset) = match *instr {
            Instr::Ld { addr, offset, .. }
            | Instr::St { addr, offset, .. }
            | Instr::Atom { addr, offset, .. } => (addr, offset),
            _ => unreachable!("is_global_access covers Ld/St/Atom only"),
        };
        let base = st[addr.0 as usize];
        addr_at[pc] = Some(add(
            base,
            AbsVal::Lin(Lin::constant(i64::from(offset))),
        ));
    }
    Dataflow { addr_at, reached }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::asm::KernelBuilder;
    use gpu_sim::ir::Special;

    fn addr_form(k: &Kernel, nth_access: usize) -> AbsVal {
        let df = run(k);
        df.addr_at
            .iter()
            .flatten()
            .copied()
            .nth(nth_access)
            .expect("kernel has that many global accesses")
    }

    #[test]
    fn gtid_stride_form_is_recovered() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let g = b.special(Special::GlobalTid);
        let off = b.mul(g, 4u32);
        let a = b.add(base, off);
        let _ = b.ld(a, 2);
        let k = b.build();
        assert_eq!(
            addr_form(&k, 0),
            AbsVal::Lin(Lin {
                param: Some(0),
                k_tid: 4,
                k_bb: 4,
                off: 8, // builder scales the word offset 2 to 8 bytes
            })
        );
    }

    #[test]
    fn manual_block_base_composition_is_recognized() {
        // blockId*blockDim + tid built by hand, then scaled and based.
        let mut b = KernelBuilder::new("k");
        let base = b.param(1);
        let tid = b.special(Special::Tid);
        let bid = b.special(Special::BlockId);
        let bdim = b.special(Special::BlockDim);
        let bb = b.mul(bid, bdim);
        let gidx = b.add(bb, tid);
        let sc = b.shl(gidx, 2u32);
        let a = b.add(base, sc);
        b.st(a, 0, tid);
        let k = b.build();
        assert_eq!(
            addr_form(&k, 0),
            AbsVal::Lin(Lin {
                param: Some(1),
                k_tid: 4,
                k_bb: 4,
                off: 0,
            })
        );
    }

    #[test]
    fn loop_induction_variables_collapse_to_top() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let i = b.imm(0);
        let top = b.here();
        let done = b.ge(i, 4u32);
        let out = b.fwd_label();
        b.bra_if(done, out);
        let off = b.mul(i, 4u32);
        let a = b.add(base, off);
        b.st(a, 0, i);
        b.assign_add(i, i, 1u32);
        b.bra(top);
        b.bind(out);
        let k = b.build();
        assert_eq!(addr_form(&k, 0), AbsVal::Top);
    }

    #[test]
    fn loaded_values_are_top() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let idx = b.ld(base, 0);
        let off = b.mul(idx, 4u32);
        let a = b.add(base, off);
        let _ = b.ld(a, 0);
        let k = b.build();
        assert_eq!(addr_form(&k, 1), AbsVal::Top);
    }

    #[test]
    fn two_param_sum_is_unrepresentable() {
        let mut b = KernelBuilder::new("k");
        let p0 = b.param(0);
        let p1 = b.param(1);
        let a = b.add(p0, p1);
        let _ = b.ld(a, 0);
        let k = b.build();
        assert_eq!(addr_form(&k, 0), AbsVal::Top);
    }

    #[test]
    fn uniform_constant_slot_is_a_constant_form() {
        let mut b = KernelBuilder::new("k");
        let p0 = b.param(0);
        let tid = b.special(Special::Tid);
        b.st(p0, 3, tid);
        let k = b.build();
        assert_eq!(
            addr_form(&k, 0),
            AbsVal::Lin(Lin {
                param: Some(0),
                k_tid: 0,
                k_bb: 0,
                off: 12,
            })
        );
    }

    #[test]
    fn join_of_unequal_paths_is_top() {
        let mut b = KernelBuilder::new("k");
        let p0 = b.param(0);
        let tid = b.special(Special::Tid);
        let is0 = b.eq(tid, 0u32);
        let els = b.fwd_label();
        let join = b.fwd_label();
        let a = b.reg();
        b.bra_ifnot(is0, els);
        b.mov(a, p0);
        b.bra(join);
        b.bind(els);
        let p1 = b.param(1);
        b.mov(a, p1);
        b.bind(join);
        b.st(a, 0, tid);
        let k = b.build();
        assert_eq!(addr_form(&k, 0), AbsVal::Top);
    }
}
