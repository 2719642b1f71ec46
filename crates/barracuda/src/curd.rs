//! CURD (Peng, Grover, Devietti — PLDI '18): the compiler-directed
//! extension of Barracuda the paper also compares against (§4, Table 1).
//!
//! CURD's design, reproduced here:
//!
//! - at (re)compilation it inspects the kernel: if it synchronizes **only
//!   with `__syncthreads()`** — no atomics, no fences, no `__syncwarp` —
//!   a cheap *barrier-interval* detector is compiled in ("CURD reduces
//!   overheads for traditional bulk-synchronous programs to 3×");
//! - anything else **falls back to Barracuda wholesale** ("it falls back
//!   on Barracuda in the presence of atomics or fences"), inheriting all
//!   of Barracuda's costs and blind spots;
//! - like Barracuda it is a compiler technique: closed-source multi-file
//!   libraries are out of reach.
//!
//! The barrier-interval detector: within one block, two conflicting
//! accesses to a word race iff they fall in the same barrier interval
//! (no `__syncthreads()` between them); any cross-block conflict is a race
//! (`__syncthreads()` never orders across blocks).

use std::collections::{HashMap, HashSet};

use gpu_sim::hook::{AccessKind, LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::kernel::Kernel;
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::inspect;
use nvbit_sim::Tool;

use crate::detector::{Barracuda, BarracudaConfig};
use crate::hb::CpuRace;
use crate::{supports, BinaryKind, Unsupported};

/// Which engine CURD compiled in for a given binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurdPath {
    /// `__syncthreads()`-only kernel: the cheap barrier-interval detector.
    Fast,
    /// Atomics/fences present: wholesale Barracuda fallback.
    BarracudaFallback,
}

/// Decides CURD's path for a binary, or refuses it (same front-end gates
/// as Barracuda: it is also a compiler technique).
pub fn curd_path(kernels: &[&Kernel], kind: BinaryKind) -> Result<CurdPath, Unsupported> {
    supports(kernels, kind)?;
    let simple = kernels.iter().all(|k| {
        let c = inspect::census(k);
        c.atomics == 0 && c.fences == 0 && c.warp_barriers == 0
    });
    Ok(if simple {
        CurdPath::Fast
    } else {
        CurdPath::BarracudaFallback
    })
}

/// Serial cycles per warp-split record on the fast path. CURD's
/// instrumentation is inlined by the compiler (no binary-rewriting
/// dispatch) and its per-interval logs are processed in bulk — the
/// paper's "3×" regime.
const FAST_RECORD_COST: u64 = 2;
/// Serial cycles of the fast path's compiler-inserted setup, charged at
/// every launch.
const FAST_SETUP_COST: u64 = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IntervalAccess {
    tid: u32,
    warp: u32,
    interval: u32,
    is_write: bool,
}

/// The CURD tool. Construct per binary via [`Curd::for_kernels`].
#[derive(Debug)]
pub struct Curd {
    path: CurdPath,
    fallback: Barracuda,
    // Fast-path state.
    block_interval: Vec<u32>,
    block_dim: u32,
    words: HashMap<u32, Vec<IntervalAccess>>,
    /// Dedup key includes the kernel: two kernels racing at the same pc
    /// are two distinct races.
    seen: HashSet<(std::sync::Arc<str>, usize, bool)>,
    kernel_name: std::sync::Arc<str>,
    races: Vec<CpuRace>,
}

impl Curd {
    /// "Compiles" the binary: inspects it and selects the engine. The
    /// fallback is an unbudgeted Barracuda.
    pub fn for_kernels(kernels: &[&Kernel], kind: BinaryKind) -> Result<Self, Unsupported> {
        let path = curd_path(kernels, kind)?;
        Ok(Curd {
            path,
            fallback: Barracuda::new(BarracudaConfig::default()),
            block_interval: Vec::new(),
            block_dim: 0,
            words: HashMap::new(),
            seen: HashSet::new(),
            kernel_name: std::sync::Arc::from(""),
            races: Vec::new(),
        })
    }

    /// The engine in use.
    #[must_use]
    pub fn path(&self) -> CurdPath {
        self.path
    }

    /// Finishes detection and returns every race found.
    pub fn finish(&mut self, clock: &mut Clock) -> Vec<CpuRace> {
        match self.path {
            CurdPath::Fast => self.races.clone(),
            CurdPath::BarracudaFallback => self.fallback.finish(clock),
        }
    }

    fn report(&mut self, pc: usize, word: u32, other: u32, tid: u32, second_is_write: bool) {
        if self
            .seen
            .insert((self.kernel_name.clone(), pc, second_is_write))
        {
            self.races.push(CpuRace {
                pc,
                word,
                tids: (other, tid),
                second_is_write,
            });
        }
    }

    fn fast_access(&mut self, word: u32, acc: IntervalAccess, block: u32, pc: usize) {
        let block_dim = self.block_dim.max(1);
        let history = self.words.entry(word).or_default();
        let mut conflict: Option<u32> = None;
        for prev in history.iter() {
            if prev.tid == acc.tid || (!prev.is_write && !acc.is_write) {
                continue;
            }
            let prev_block = prev.tid / block_dim;
            let same_block = prev_block == block;
            let ordered = if same_block {
                // Ordered iff a __syncthreads() separates the intervals;
                // same-warp accesses are also ordered (SM-era lockstep —
                // CURD "could, in theory, detect races due to ITS but does
                // not support warp-level barriers", §4).
                prev.interval != acc.interval || prev.warp == acc.warp
            } else {
                // __syncthreads() never orders across blocks.
                false
            };
            if !ordered {
                conflict = Some(prev.tid);
                break;
            }
        }
        // Keep one record per (thread, kind) — enough for interval logic.
        history.retain(|p| !(p.tid == acc.tid && p.is_write == acc.is_write));
        history.push(acc);
        if let Some(other) = conflict {
            self.report(pc, word, other, acc.tid, acc.is_write);
        }
    }
}

impl Tool for Curd {
    fn at_launch(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        match self.path {
            CurdPath::Fast => {
                self.block_interval = vec![0; info.grid_dim as usize];
                self.block_dim = info.block_dim;
                self.kernel_name = info.kernel_name.clone();
                self.words.clear();
                // Compiler-inserted instrumentation: modest setup.
                clock.charge_serial(CostCategory::Setup, FAST_SETUP_COST);
            }
            CurdPath::BarracudaFallback => self.fallback.at_launch(info, clock),
        }
    }

    fn at_exit(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        if self.path == CurdPath::BarracudaFallback {
            self.fallback.at_exit(info, clock);
        }
    }

    fn on_mem(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        if access.space != gpu_sim::ir::Space::Global {
            return;
        }
        match self.path {
            CurdPath::Fast => {
                clock.charge_serial(CostCategory::Detection, FAST_RECORD_COST);
                let interval = self.block_interval[access.block_id as usize];
                let lanes: Vec<(u32, u32)> = access
                    .lanes
                    .iter()
                    .map(|l| (l.tid_in_block, l.addr))
                    .collect();
                let is_write = !matches!(access.kind, AccessKind::Load);
                for (tid_in_block, addr) in lanes {
                    let acc = IntervalAccess {
                        tid: access.block_id * self.block_dim + tid_in_block,
                        warp: access.global_warp,
                        interval,
                        is_write,
                    };
                    self.fast_access(addr / 4, acc, access.block_id, access.pc);
                }
            }
            CurdPath::BarracudaFallback => self.fallback.on_mem(access, clock),
        }
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, clock: &mut Clock) {
        match self.path {
            CurdPath::Fast => {
                if let SyncEvent::BlockBarrier { block_id } = event {
                    self.block_interval[*block_id as usize] += 1;
                }
            }
            CurdPath::BarracudaFallback => self.fallback.on_sync(event, clock),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;
    use nvbit_sim::Instrumented;

    fn barrier_kernel(with_barrier: bool) -> Kernel {
        let mut b = KernelBuilder::new(if with_barrier { "bar_ok" } else { "bar_racy" });
        let tid = b.special(Special::Tid);
        let base = b.param(0);
        let is40 = b.eq(tid, 40u32);
        let after = b.fwd_label();
        b.bra_ifnot(is40, after);
        let v = b.imm(5);
        b.st(base, 1, v);
        b.bind(after);
        if with_barrier {
            b.syncthreads();
        }
        let is0 = b.eq(tid, 0u32);
        let fin = b.fwd_label();
        b.bra_ifnot(is0, fin);
        let got = b.ld(base, 1);
        b.st(base, 0, got);
        b.bind(fin);
        b.build()
    }

    fn run_curd(k: &Kernel, grid: u32, block: u32) -> (CurdPath, usize) {
        let curd = Curd::for_kernels(&[k], BinaryKind::SingleFile).expect("supported");
        let path = curd.path();
        let mut gpu = Gpu::new(GpuConfig {
            seed: 3,
            ..GpuConfig::default()
        });
        let buf = gpu.alloc(8).unwrap();
        let mut tool = Instrumented::new(curd);
        gpu.launch(k, grid, block, &[buf], &mut tool).unwrap();
        let races = tool.tool_mut().finish(gpu.clock_mut()).len();
        (path, races)
    }

    #[test]
    fn syncthreads_only_kernels_take_the_fast_path() {
        let (path, races) = run_curd(&barrier_kernel(true), 1, 64);
        assert_eq!(path, CurdPath::Fast);
        assert_eq!(races, 0);
    }

    #[test]
    fn fast_path_detects_missing_barriers() {
        let (path, races) = run_curd(&barrier_kernel(false), 1, 64);
        assert_eq!(path, CurdPath::Fast);
        assert_eq!(races, 1);
    }

    #[test]
    fn fast_path_detects_cross_block_conflicts() {
        // Every block's leader stores the same word; syncthreads cannot
        // order across blocks.
        let mut b = KernelBuilder::new("cross_block");
        let base = b.param(0);
        let tid = b.special(Special::Tid);
        let is0 = b.eq(tid, 0u32);
        let fin = b.fwd_label();
        b.bra_ifnot(is0, fin);
        b.st(base, 0, tid);
        b.bind(fin);
        b.syncthreads();
        let k = b.build();
        let (path, races) = run_curd(&k, 4, 32);
        assert_eq!(path, CurdPath::Fast);
        assert_eq!(races, 1);
    }

    #[test]
    fn atomics_force_the_barracuda_fallback() {
        let mut b = KernelBuilder::new("with_atomic");
        let base = b.param(0);
        let one = b.imm(1);
        let _ = b.atom(AtomOp::Add, Scope::Device, base, 0, one);
        let k = b.build();
        let curd = Curd::for_kernels(&[&k], BinaryKind::SingleFile).expect("supported");
        assert_eq!(curd.path(), CurdPath::BarracudaFallback);
    }

    #[test]
    fn scoped_atomics_remain_unsupported() {
        let mut b = KernelBuilder::new("with_scoped");
        let base = b.param(0);
        let one = b.imm(1);
        let _ = b.atom(AtomOp::Add, Scope::Block, base, 0, one);
        let k = b.build();
        assert_eq!(
            Curd::for_kernels(&[&k], BinaryKind::SingleFile).err(),
            Some(Unsupported::ScopedAtomics)
        );
    }

    #[test]
    fn multi_file_remains_unsupported() {
        let k = barrier_kernel(true);
        assert_eq!(
            Curd::for_kernels(&[&k], BinaryKind::MultiFile).err(),
            Some(Unsupported::MultiFilePtx)
        );
    }

    #[test]
    fn fast_path_misses_its_races_like_the_paper_says() {
        // "It could, in theory, detect races due to ITS but does not
        // support warp-level barriers" (§4) — same-warp accesses are
        // treated as lockstep-ordered.
        let mut b = KernelBuilder::new("its_racy");
        let tid = b.special(Special::Tid);
        let base = b.param(0);
        let is1 = b.eq(tid, 1u32);
        let skip = b.fwd_label();
        b.bra_ifnot(is1, skip);
        let v = b.imm(7);
        b.st(base, 1, v);
        b.bind(skip);
        let is0 = b.eq(tid, 0u32);
        let fin = b.fwd_label();
        b.bra_ifnot(is0, fin);
        let got = b.ld(base, 1);
        b.st(base, 0, got);
        b.bind(fin);
        let k = b.build();
        let (path, races) = run_curd(&k, 1, 32);
        assert_eq!(path, CurdPath::Fast);
        assert_eq!(
            races, 0,
            "the lockstep assumption hides the intra-warp race"
        );
    }
}
