//! The simulated GPU device: allocation, launch, scheduling, execution.
//!
//! # Execution model
//!
//! A launch creates `grid_dim` blocks of `block_dim` threads; blocks are
//! assigned round-robin to SMs and are all resident (cooperative-launch
//! style), so grid-wide spin synchronization — the pattern behind the
//! paper's CG workloads — can make progress. Threads are grouped into
//! 32-lane warps. The scheduler repeatedly picks a warp (fair round-robin
//! across every warp in the grid) and executes **one instruction for one
//! warp split**: the subset of the warp's runnable lanes sharing a PC.
//!
//! - **Lockstep mode** (pre-Volta): the split at the *minimum* PC runs,
//!   which makes diverged lanes reconverge eagerly — the classic SIMT
//!   behaviour with its implicit per-instruction warp barrier.
//! - **ITS mode** (Volta+ Independent Thread Scheduling): a *random* split
//!   runs (seeded, deterministic), and with small probability a split is
//!   further subdivided — converged threads are never guaranteed to stay
//!   converged, exactly the guarantee NVIDIA dropped with ITS. This is what
//!   lets missing-`syncwarp` races manifest as observably wrong values.
//!
//! Fairness of the round-robin guarantees that spin-wait loops cannot
//! starve their producer; true livelocks (e.g. per-thread locks under
//! lockstep, §6.6) hit the step watchdog and report [`SimError::Timeout`].
//!
//! # State
//!
//! A launch owns one warp-major state (`RunState`): a register file
//! `[warp][reg][lane]` sized by [`Kernel::num_regs`], and per warp a split
//! table — its un-exited lanes grouped by pc — and three lane masks —
//! ready / at the block barrier / at the warp barrier; a lane in none has
//! exited. A warp split is a `u32` lane mask from the scheduler's pick to
//! the hook's `active_mask` (DESIGN.md §8).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::SimError;
use crate::hook::{AccessKind, ExecMode, Hook, LaneAccess, LaunchInfo, MemAccess, SyncEvent};
use crate::ir::{AluOp, CmpOp, Instr, Operand, Space, Special, WARP_SIZE};
use crate::kernel::Kernel;
use crate::mem::GlobalMem;
use crate::sched::{LaunchContext, RandomScheduler, Scheduler};
use crate::timing::{Clock, CostCategory, CostModel};
use faults::{FaultConfig, FaultInjector, FaultSite, FaultStats};

/// Static configuration of the simulated device.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (Titan RTX: 72).
    pub num_sms: usize,
    /// Words of real backing storage for global memory.
    pub mem_words: usize,
    /// Logical device-memory capacity in bytes, for allocation accounting
    /// (Titan RTX: 24 GB). Allocations may declare a logical size larger
    /// than their backing storage so footprint-scaling experiments
    /// (Figure 14) can model tens of GB without hosting them.
    pub device_mem_bytes: u64,
    /// Scheduler-step watchdog; exceeded ⇒ [`SimError::Timeout`].
    pub max_steps: u64,
    /// Lockstep (pre-Volta) or ITS (Volta+) warp scheduling.
    pub mode: ExecMode,
    /// Seed for the ITS interleaving choices.
    pub seed: u64,
    /// Probability that ITS subdivides a converged split (schedule fuzzing).
    pub its_split_prob: f64,
    /// Warp-scheduler slots per SM; bounds effective parallelism.
    pub warp_slots_per_sm: usize,
    /// Instruction cost table.
    pub cost: CostModel,
    /// Fault-injection plane (disabled by default; a disabled config is
    /// behaviour-identical to a build without the plane).
    pub faults: FaultConfig,
    /// Weak-visibility memory (litmus mode): non-volatile global loads may
    /// observe any legal candidate value, with the attached scheduler's
    /// `choose_visibility` picking among them. Off by default — the strong
    /// model is the production behaviour and the golden tests pin it.
    pub weak_visibility: bool,
    /// Fire [`Hook::on_load_value`] for every global load. Implied by
    /// `weak_visibility`; off by default (detectors are value-blind).
    pub record_load_values: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 72,
            mem_words: 1 << 22, // 16 MiB backing
            device_mem_bytes: 24 * (1 << 30),
            max_steps: 50_000_000,
            mode: ExecMode::Its,
            seed: 0x16_0A2D,
            its_split_prob: 0.02,
            warp_slots_per_sm: 4,
            cost: CostModel::default(),
            faults: FaultConfig::disabled(),
            weak_visibility: false,
            record_load_values: false,
        }
    }
}

/// One device allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Base byte address.
    pub addr: u32,
    /// Backing words.
    pub words: usize,
    /// Logical size charged against device capacity.
    pub logical_bytes: u64,
}

/// Summary of a completed launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Scheduler steps (warp-split executions).
    pub steps: u64,
    /// Dynamic instructions (one per split execution).
    pub dyn_instrs: u64,
    /// Dynamic lane-instructions (instructions × participating lanes).
    pub lane_instrs: u64,
}

/// The simulated GPU.
pub struct Gpu {
    cfg: GpuConfig,
    mem: GlobalMem,
    clock: Clock,
    allocs: Vec<Allocation>,
    bump_word: usize,
    logical_allocated: u64,
    faults: FaultInjector,
}

impl Gpu {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    /// Panics if `mem_words` exceeds the simulator's 32-bit byte address
    /// space (2^30 words): buffer addresses are `u32` byte addresses, so a
    /// larger backing store would silently wrap. Fallible callers use
    /// [`Gpu::try_new`].
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        Gpu::try_new(cfg).unwrap_or_else(|e| match e {
            SimError::BadConfig { reason } => panic!("{reason}"),
            e => panic!("{e}"),
        })
    }

    /// Fallible [`Gpu::new`]: a structurally invalid configuration becomes
    /// [`SimError::BadConfig`] instead of a panic.
    pub fn try_new(cfg: GpuConfig) -> Result<Self, SimError> {
        if cfg.mem_words > 1 << 30 {
            return Err(SimError::BadConfig {
                reason: format!(
                    "mem_words {} exceeds the 32-bit simulated address space",
                    cfg.mem_words
                ),
            });
        }
        if cfg.num_sms == 0 {
            return Err(SimError::BadConfig {
                reason: "num_sms must be positive".into(),
            });
        }
        if cfg.warp_slots_per_sm == 0 {
            return Err(SimError::BadConfig {
                reason: "warp_slots_per_sm must be positive".into(),
            });
        }
        let mut mem = GlobalMem::new(cfg.mem_words, cfg.num_sms);
        if cfg.weak_visibility {
            mem.enable_weak();
        }
        let faults = FaultInjector::new(&cfg.faults, "gpu-launch");
        Ok(Gpu {
            cfg,
            mem,
            clock: Clock::new(),
            allocs: Vec::new(),
            // Reserve the first words so address 0 stays "null".
            bump_word: 16,
            logical_allocated: 64,
            faults,
        })
    }

    /// Injected-fault counters for the launch boundary.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The cycle accounting for this device.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Mutable cycle accounting (benchmark harnesses reset between runs).
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Allocates `words` of global memory (logical size = backing size).
    ///
    /// Returns the base byte address (`cudaMalloc` analogue).
    pub fn alloc(&mut self, words: usize) -> Result<u32, SimError> {
        self.alloc_logical(words, words as u64 * 4)
    }

    /// Allocates `words` of backing storage while charging `logical_bytes`
    /// against device capacity. Used by footprint-scaling experiments to
    /// model multi-GB buffers with small backing arrays.
    pub fn alloc_logical(&mut self, words: usize, logical_bytes: u64) -> Result<u32, SimError> {
        if self.bump_word + words > self.mem.words() {
            return Err(SimError::OutOfMemory {
                requested: words as u64 * 4,
                available: (self.mem.words() - self.bump_word) as u64 * 4,
            });
        }
        if self.logical_allocated + logical_bytes > self.cfg.device_mem_bytes {
            return Err(SimError::OutOfMemory {
                requested: logical_bytes,
                available: self.cfg.device_mem_bytes - self.logical_allocated,
            });
        }
        let addr = (self.bump_word * 4) as u32;
        self.allocs.push(Allocation {
            addr,
            words,
            logical_bytes,
        });
        self.bump_word += words;
        self.logical_allocated += logical_bytes;
        Ok(addr)
    }

    /// Logical device bytes not claimed by any allocation.
    #[must_use]
    pub fn free_device_bytes(&self) -> u64 {
        self.cfg.device_mem_bytes - self.logical_allocated
    }

    /// Logical bytes currently allocated.
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.logical_allocated
    }

    /// Host write of word `idx` of the buffer at `base`.
    pub fn write(&mut self, base: u32, idx: usize, value: u32) {
        self.mem.write_coherent(base + (idx * 4) as u32, value);
    }

    /// Host read of word `idx` of the buffer at `base` (coherent view).
    #[must_use]
    pub fn read(&self, base: u32, idx: usize) -> u32 {
        self.mem.read_coherent(base + (idx * 4) as u32)
    }

    /// Host write of `data` to words `0..data.len()` of the buffer at `base`.
    pub fn write_slice(&mut self, base: u32, data: &[u32]) {
        for (i, &v) in data.iter().enumerate() {
            self.write(base, i, v);
        }
    }

    /// Reads `len` words starting at the buffer at `base`.
    #[must_use]
    pub fn read_slice(&self, base: u32, len: usize) -> Vec<u32> {
        (0..len).map(|i| self.read(base, i)).collect()
    }

    /// Launches `kernel` on a 1-D grid with an attached tool, running it to
    /// completion (or fault/timeout).
    ///
    /// Scheduling decisions come from the production [`RandomScheduler`]
    /// seeded from [`GpuConfig::seed`]; [`Gpu::launch_with`] accepts any
    /// [`Scheduler`] instead.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        grid_dim: u32,
        block_dim: u32,
        params: &[u32],
        hook: &mut dyn Hook,
    ) -> Result<LaunchStats, SimError> {
        let mut sched = RandomScheduler::new(self.cfg.seed, self.cfg.its_split_prob);
        self.launch_with(kernel, grid_dim, block_dim, params, hook, &mut sched)
    }

    /// Launches `kernel` with an explicit [`Scheduler`] driving every
    /// warp-split decision (replay, systematic enumeration, recording).
    pub fn launch_with(
        &mut self,
        kernel: &Kernel,
        grid_dim: u32,
        block_dim: u32,
        params: &[u32],
        hook: &mut dyn Hook,
        sched: &mut dyn Scheduler,
    ) -> Result<LaunchStats, SimError> {
        if block_dim == 0 || block_dim > 1024 {
            return Err(SimError::BadLaunch {
                reason: format!("block_dim {block_dim} outside 1..=1024"),
            });
        }
        if grid_dim == 0 {
            return Err(SimError::BadLaunch {
                reason: "grid_dim is 0".into(),
            });
        }
        if params.len() > 16 {
            return Err(SimError::BadLaunch {
                reason: "more than 16 params".into(),
            });
        }
        // `Kernel::code` is a public field, so `Kernel::new`'s checks are
        // not the only way in: every pc a split table holds must index it.
        if !matches!(kernel.code.last(), Some(Instr::Exit | Instr::Bra { .. })) {
            return Err(SimError::BadLaunch {
                reason: format!("kernel `{}` can run past its last instruction", kernel.name),
            });
        }

        // Fault plane: a launch can abort at the boundary (sticky device
        // fault) or hang partway and be killed by the watchdog. The hang
        // point is a deterministic draw, so a campaign replays exactly.
        let mut step_limit = self.cfg.max_steps;
        if self.faults.enabled() {
            if self.faults.fire(FaultSite::KernelAbort) {
                return Err(SimError::InjectedFault {
                    site: FaultSite::KernelAbort.name().into(),
                });
            }
            if self.faults.fire(FaultSite::KernelHang) {
                step_limit =
                    step_limit.min(self.faults.draw(FaultSite::KernelHang, self.cfg.max_steps));
            }
        }

        let warps_per_block = block_dim.div_ceil(WARP_SIZE as u32);
        let Some(total_threads) = grid_dim.checked_mul(block_dim) else {
            return Err(SimError::BadLaunch {
                reason: format!("grid {grid_dim} x block {block_dim} exceeds 2^32 threads"),
            });
        };
        // No more warps than threads, so this product fits as well.
        let total_warps = grid_dim * warps_per_block;
        let info = LaunchInfo {
            kernel_name: kernel.name.clone(),
            grid_dim,
            block_dim,
            warps_per_block,
            total_threads,
            total_warps,
            mode: self.cfg.mode,
            num_sms: self.cfg.num_sms as u32,
            free_device_bytes: self.free_device_bytes(),
            app_footprint_bytes: self.logical_allocated,
            device_capacity_bytes: self.cfg.device_mem_bytes,
            backing_words: self.mem.words(),
            code_len: kernel.code.len(),
            params: params.to_vec(),
        };

        let eff = (total_warps as usize).min(self.cfg.num_sms * self.cfg.warp_slots_per_sm);
        self.clock.set_parallelism(eff.max(1) as f64);
        hook.on_kernel_launch(&info, &mut self.clock);

        sched.begin_launch(&LaunchContext {
            grid_dim,
            block_dim,
            mode: self.cfg.mode,
        });
        let mut run = RunState::new(kernel, &self.cfg.cost, params, &info);
        let num_warps = run.warps.len();
        let mut cursor = 0usize;
        let warp_choice = sched.wants_warp_choice();
        // Eager-invisible mode (partial-order reduction): instructions that
        // cannot touch memory run without consulting the scheduler, so only
        // memory operations branch a systematic enumeration.
        let eager = sched.wants_eager_invisible();
        let mut runnable_scratch: Vec<usize> = Vec::new();

        while run.live > 0 {
            run.stats.steps += 1;
            if run.stats.steps > step_limit {
                // Publish what executed so detectors can still report.
                self.mem.flush_all();
                return Err(SimError::Timeout {
                    steps: run.stats.steps,
                });
            }
            let pick = if warp_choice {
                // Systematic mode: offer the scheduler every warp with a
                // runnable lane, in flat (block, warp) order.
                runnable_scratch.clear();
                runnable_scratch.extend((0..num_warps).filter(|&w| run.warps[w].ready != 0));
                // Eager mode: a warp with a runnable lane at an invisible
                // instruction runs first, deterministically and without a
                // scheduling decision — such transitions commute with
                // every other enabled transition.
                let eager_pick = runnable_scratch
                    .iter()
                    .copied()
                    .find(|&w| eager && run.has_invisible_runnable(w));
                match (eager_pick, runnable_scratch.len()) {
                    (_, 0) => None,
                    (Some(w), _) => Some(w),
                    (None, 1) => Some(runnable_scratch[0]),
                    (None, n) => Some(runnable_scratch[sched.choose_warp(n).min(n - 1)]),
                }
            } else {
                // Production mode: fair round-robin scan for the next warp
                // with a runnable lane (a dead warp costs one load).
                let next = (cursor..num_warps)
                    .chain(0..cursor)
                    .find(|&w| run.warps[w].ready != 0);
                if let Some(w) = next {
                    cursor = if w + 1 == num_warps { 0 } else { w + 1 };
                }
                next
            };
            let Some(w) = pick else {
                return Err(SimError::Deadlock {
                    kernel: kernel.name.to_string(),
                });
            };
            let (group, split) = pick_split(
                run.warps[w].ready,
                &run.splits[w],
                self.cfg.mode,
                sched,
                eager,
                &run.code,
            );
            self.exec_split(&mut run, w, group, split, hook, sched)?;
        }

        // Implicit device-wide barrier at grid completion (§2.1).
        self.mem.flush_all();
        hook.on_kernel_end(&info, &mut self.clock);
        Ok(run.stats)
    }

    /// Executes one instruction for the lanes of `split` (non-empty, part
    /// of group `group` of warp `w`'s split table).
    #[allow(clippy::too_many_lines)]
    fn exec_split(
        &mut self,
        run: &mut RunState<'_>,
        w: usize,
        group: usize,
        split: u32,
        hook: &mut dyn Hook,
        sched: &mut dyn Scheduler,
    ) -> Result<(), SimError> {
        let kernel = run.kernel;
        let global_warp = w as u32;
        let block_id = global_warp / run.warps_per_block;
        let wi = global_warp % run.warps_per_block;
        let bi = block_id as usize;
        let sm = bi % self.cfg.num_sms;
        let warp_base = wi * WARP_SIZE as u32;
        let pc = run.splits[w].groups()[group].pc;
        let d = run.code[pc as usize];
        let lanes = split.count_ones();
        let at = SplitSite {
            kernel,
            pc: pc as usize,
            block_id,
            warp_in_block: wi,
            global_warp,
            active_mask: split,
            warps_per_block: run.warps_per_block,
            sm: sm as u32,
            step: run.stats.steps,
        };

        run.stats.dyn_instrs += 1;
        run.stats.lane_instrs += u64::from(lanes);

        // Predecoded static cost: atomics serialize per lane (L2 ROP / SM
        // atomic unit), everything else charges a fixed per-split cost.
        if matches!(d.instr, Instr::Atom { .. }) {
            self.clock
                .charge(CostCategory::Native, d.cost * u64::from(lanes));
            self.clock
                .charge_serial(CostCategory::Native, d.serial_cost * u64::from(lanes));
        } else {
            self.clock.charge(CostCategory::Native, d.cost);
        }

        // This warp's rows of the register file, and its block's scratchpad.
        let regs = &mut run.regs[w * run.num_regs..(w + 1) * run.num_regs];
        let shared = &mut run.shared[bi * kernel.shared_words..(bi + 1) * kernel.shared_words];
        // The split leaves its group here and joins the group at wherever
        // it goes next (nowhere, on `Exit`).
        let table = &mut run.splits[w];
        table.remove(group, split);
        let mut next_pc = Some(pc + 1);

        match d.instr {
            Instr::Mov { rd, src } => {
                let v = operand(regs, src);
                let out = &mut regs[rd.0 as usize];
                for_lanes(split, |l| out[l] = v[l]);
            }
            Instr::Read { rd, sp } => {
                let out = &mut regs[rd.0 as usize];
                let uniform = match sp {
                    Special::Tid => {
                        for_lanes(split, |l| out[l] = warp_base + l as u32);
                        None
                    }
                    Special::LaneId => {
                        for_lanes(split, |l| out[l] = l as u32);
                        None
                    }
                    Special::GlobalTid => {
                        let base = block_id * run.block_dim + warp_base;
                        for_lanes(split, |l| out[l] = base + l as u32);
                        None
                    }
                    Special::BlockId => Some(block_id),
                    Special::BlockDim => Some(run.block_dim),
                    Special::GridDim => Some(run.grid_dim),
                    Special::WarpInBlock => Some(wi),
                    Special::GlobalWarpId => Some(global_warp),
                    Special::ActiveMask => Some(split),
                };
                if let Some(v) = uniform {
                    for_lanes(split, |l| out[l] = v);
                }
            }
            Instr::Param { rd, idx } => {
                let v = *run
                    .params
                    .get(idx as usize)
                    .ok_or_else(|| SimError::BadLaunch {
                        reason: format!("kernel `{}` reads missing param {idx}", kernel.name),
                    })?;
                let out = &mut regs[rd.0 as usize];
                for_lanes(split, |l| out[l] = v);
            }
            Instr::Alu { op, rd, ra, b } => {
                let (a, b) = (regs[ra.0 as usize], operand(regs, b));
                if !alu_lanes(op, split, &a, &b, &mut regs[rd.0 as usize]) {
                    return Err(SimError::DivideByZero {
                        kernel: kernel.name.to_string(),
                        pc: pc as usize,
                    });
                }
            }
            Instr::Setp { op, rd, ra, b } => {
                let (a, b) = (regs[ra.0 as usize], operand(regs, b));
                cmp_lanes(op, split, &a, &b, &mut regs[rd.0 as usize]);
            }
            Instr::Sel { rd, cond, a, b } => {
                let (c, a, b) = (regs[cond.0 as usize], operand(regs, a), operand(regs, b));
                let out = &mut regs[rd.0 as usize];
                for_lanes(split, |l| out[l] = if c[l] != 0 { a[l] } else { b[l] });
            }
            Instr::Bra { target } => next_pc = Some(target as u32),
            Instr::BraIf { cond, target } | Instr::BraIfNot { cond, target } => {
                let c = &regs[cond.0 as usize];
                let on_zero = matches!(d.instr, Instr::BraIfNot { .. });
                let mut taken = 0;
                for_lanes(split, |l| taken |= u32::from((c[l] == 0) == on_zero) << l);
                table.insert(target as u32, taken);
                table.insert(pc + 1, split & !taken);
                next_pc = None;
            }
            Instr::Ld {
                rd,
                addr,
                offset,
                space,
                volatile,
            } => {
                let accesses = &mut run.lane_scratch;
                gather_accesses(split, warp_base, &regs[addr.0 as usize], offset, accesses);
                at.fire_mem_hook(
                    &mut self.clock,
                    hook,
                    AccessKind::Load,
                    space,
                    volatile,
                    accesses,
                );
                let out = &mut regs[rd.0 as usize];
                // Weak visibility implies recording the observed values.
                let weak = self.cfg.weak_visibility && !volatile;
                let record = self.cfg.record_load_values || self.cfg.weak_visibility;
                for la in accesses.iter() {
                    let v = match space {
                        Space::Shared => load_shared(shared, la.addr)?,
                        Space::Global if weak => self
                            .mem
                            .load_weak(sm, la.addr, &mut |n| sched.choose_visibility(n))?,
                        Space::Global => self.mem.load(sm, la.addr, volatile)?,
                    };
                    if record && space == Space::Global {
                        hook.on_load_value(block_id, la.tid_in_block, la.addr, pc as usize, v);
                    }
                    out[la.lane as usize] = v;
                }
            }
            Instr::St {
                addr,
                offset,
                val,
                space,
                volatile,
            } => {
                let accesses = &mut run.lane_scratch;
                gather_accesses(split, warp_base, &regs[addr.0 as usize], offset, accesses);
                at.fire_mem_hook(
                    &mut self.clock,
                    hook,
                    AccessKind::Store,
                    space,
                    volatile,
                    accesses,
                );
                let v = &regs[val.0 as usize];
                for la in accesses.iter() {
                    match space {
                        Space::Shared => store_shared(shared, la.addr, v[la.lane as usize])?,
                        Space::Global => {
                            self.mem.store(sm, la.addr, v[la.lane as usize], volatile)?;
                        }
                    }
                }
            }
            Instr::Atom {
                op,
                scope,
                rd,
                addr,
                offset,
                src,
                cmp,
            } => {
                let accesses = &mut run.lane_scratch;
                gather_accesses(split, warp_base, &regs[addr.0 as usize], offset, accesses);
                let kind = AccessKind::Atomic { op, scope };
                at.fire_mem_hook(&mut self.clock, hook, kind, Space::Global, false, accesses);
                let (s, c) = (regs[src.0 as usize], regs[cmp.0 as usize]);
                let out = &mut regs[rd.0 as usize];
                for la in accesses.iter() {
                    let l = la.lane as usize;
                    out[l] = self.mem.atomic(sm, la.addr, op, s[l], c[l], scope)?;
                }
            }
            Instr::Membar { scope } => {
                self.mem.fence(sm, scope);
                let tids = &mut run.tid_scratch;
                tids.clear();
                for_lanes(split, |l| tids.push((l as u32, warp_base + l as u32)));
                let fence = SyncEvent::Fence {
                    scope,
                    block_id,
                    global_warp,
                    tids,
                    active_mask: split,
                    pc: pc as usize,
                    step: at.step,
                };
                hook.on_sync(&fence, &mut self.clock);
            }
            Instr::BarSync => {
                run.warps[w].ready &= !split;
                run.warps[w].at_block_bar |= split;
                run.blocks[bi].arrived += lanes;
            }
            Instr::BarWarp => {
                run.warps[w].ready &= !split;
                run.warps[w].at_warp_bar |= split;
            }
            Instr::Exit => {
                run.warps[w].ready &= !split;
                run.blocks[bi].exited += lanes;
                run.live -= u64::from(lanes);
                next_pc = None;
            }
            Instr::Nop => {}
        }
        if let Some(next) = next_pc {
            table.insert(next, split);
        }

        // An arrival or an exit may complete a barrier: exiting threads
        // release waiters (CUDA treats exited threads as having arrived at
        // subsequent barriers).
        if matches!(d.instr, Instr::BarSync | Instr::Exit) && run.release_block_barrier(bi) {
            hook.on_sync(&SyncEvent::BlockBarrier { block_id }, &mut self.clock);
        }
        if matches!(d.instr, Instr::BarWarp | Instr::Exit) && run.warps[w].release_warp_barrier() {
            let released = SyncEvent::WarpBarrier {
                block_id,
                warp_in_block: wi,
                global_warp,
            };
            hook.on_sync(&released, &mut self.clock);
        }
        Ok(())
    }
}

/// Where and when a warp split executes: the launch-position half of a
/// [`MemAccess`].
struct SplitSite<'a> {
    kernel: &'a Kernel,
    pc: usize,
    block_id: u32,
    warp_in_block: u32,
    global_warp: u32,
    active_mask: u32,
    warps_per_block: u32,
    sm: u32,
    step: u64,
}

impl SplitSite<'_> {
    /// Fires the memory hook for the split's gathered `lanes`.
    fn fire_mem_hook(
        &self,
        clock: &mut Clock,
        hook: &mut dyn Hook,
        kind: AccessKind,
        space: Space,
        volatile: bool,
        lanes: &[LaneAccess],
    ) {
        let access = MemAccess {
            kernel: self.kernel,
            pc: self.pc,
            kind,
            space,
            block_id: self.block_id,
            warp_in_block: self.warp_in_block,
            global_warp: self.global_warp,
            active_mask: self.active_mask,
            volatile,
            lanes,
            warps_per_block: self.warps_per_block,
            sm: self.sm,
            step: self.step,
        };
        hook.on_mem_access(&access, clock);
    }
}

/// One register of every lane of a warp.
type Row = [u32; WARP_SIZE];

/// Every lane of a warp.
const FULL_MASK: u32 = u32::MAX;

/// The state of a warp's lanes, one bit per lane. A lane in none of the
/// three masks has exited (or lies beyond `block_dim` in a partial last
/// warp).
#[derive(Debug, Clone, Copy)]
struct WarpMasks {
    /// Lanes that can issue.
    ready: u32,
    /// Lanes waiting at `bar.sync`.
    at_block_bar: u32,
    /// Lanes waiting at `bar.warp`.
    at_warp_bar: u32,
}

impl WarpMasks {
    /// Releases the warp barrier if every live lane has arrived; true if
    /// a release happened.
    fn release_warp_barrier(&mut self) -> bool {
        if self.ready != 0 || self.at_block_bar != 0 || self.at_warp_bar == 0 {
            return false;
        }
        self.ready = std::mem::take(&mut self.at_warp_bar);
        true
    }
}

/// The lanes of a warp that share a pc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Group {
    pc: u32,
    mask: u32,
}

/// A warp's un-exited lanes — ready or waiting at a barrier — grouped by
/// pc. Three invariants hold between scheduler steps: the groups' pcs are
/// ascending and distinct; their masks are non-empty and disjoint; and the
/// masks' union is exactly the union of the warp's three [`WarpMasks`].
/// A scheduler step therefore reads its candidate pcs already in order,
/// and almost always reads one (DESIGN.md §8 has the traffic).
#[derive(Debug, Clone, Copy)]
struct SplitTable {
    len: usize,
    groups: [Group; WARP_SIZE],
}

impl SplitTable {
    /// Every lane of `mask` at pc 0.
    fn new(mask: u32) -> Self {
        let mut table = SplitTable {
            len: 0,
            groups: [Group::default(); WARP_SIZE],
        };
        table.insert(0, mask);
        table
    }

    fn groups(&self) -> &[Group] {
        &self.groups[..self.len]
    }

    /// Takes the lanes of `mask` out of group `g`, closing the gap if that
    /// empties it.
    fn remove(&mut self, g: usize, mask: u32) {
        self.groups[g].mask &= !mask;
        if self.groups[g].mask == 0 {
            self.groups.copy_within(g + 1..self.len, g);
            self.len -= 1;
        }
    }

    /// Adds the lanes of `mask` (none of them in the table) at `pc`,
    /// merging into the group already there if there is one. No-op for an
    /// empty mask.
    fn insert(&mut self, pc: u32, mask: u32) {
        if mask == 0 {
            return;
        }
        let at = self
            .groups()
            .iter()
            .position(|g| g.pc >= pc)
            .unwrap_or(self.len);
        if at < self.len && self.groups[at].pc == pc {
            self.groups[at].mask |= mask;
        } else {
            // Disjoint non-empty masks: at most `WARP_SIZE` groups.
            self.groups.copy_within(at..self.len, at + 1);
            self.groups[at] = Group { pc, mask };
            self.len += 1;
        }
    }
}

/// Block-barrier bookkeeping: threads of the block waiting at `bar.sync`
/// and threads that exited.
#[derive(Debug, Clone, Copy, Default)]
struct BlockSync {
    arrived: u32,
    exited: u32,
}

/// Everything one launch owns, warp-major. Warp `w` is warp
/// `w % warps_per_block` of block `w / warps_per_block`; `w` is also its
/// `global_warp` id and its place in the round-robin order.
struct RunState<'a> {
    kernel: &'a Kernel,
    /// Predecoded instruction stream (one entry per pc of `kernel.code`).
    code: Vec<Decoded>,
    params: &'a [u32],
    warps_per_block: u32,
    block_dim: u32,
    grid_dim: u32,
    stats: LaunchStats,
    live: u64,
    /// `kernel.num_regs()`: rows of `regs` per warp.
    num_regs: usize,
    /// The register file, `regs[w * num_regs + reg][lane]`.
    regs: Vec<Row>,
    /// Where each warp's lanes are.
    splits: Vec<SplitTable>,
    warps: Vec<WarpMasks>,
    blocks: Vec<BlockSync>,
    /// The blocks' scratchpads, `kernel.shared_words` each.
    shared: Vec<u32>,
    /// Reused per-split lane-access buffer (no per-access allocation).
    lane_scratch: Vec<LaneAccess>,
    /// Reused fence `(lane, tid)` buffer.
    tid_scratch: Vec<(u32, u32)>,
}

impl<'a> RunState<'a> {
    /// All-zero registers, every thread ready at pc 0.
    fn new(kernel: &'a Kernel, cost: &CostModel, params: &'a [u32], info: &LaunchInfo) -> Self {
        let (grid_dim, block_dim, warps_per_block) =
            (info.grid_dim, info.block_dim, info.warps_per_block);
        let num_warps = info.total_warps as usize;
        let num_regs = kernel.num_regs();
        let warps: Vec<WarpMasks> = (0..num_warps as u32)
            .map(|w| {
                let threads = block_dim - (w % warps_per_block) * WARP_SIZE as u32;
                WarpMasks {
                    ready: FULL_MASK >> (WARP_SIZE as u32 - threads.min(WARP_SIZE as u32)),
                    at_block_bar: 0,
                    at_warp_bar: 0,
                }
            })
            .collect();
        RunState {
            kernel,
            code: predecode(&kernel.code, cost),
            params,
            warps_per_block,
            block_dim,
            grid_dim,
            stats: LaunchStats::default(),
            live: u64::from(info.total_threads),
            num_regs,
            regs: vec![[0; WARP_SIZE]; num_warps * num_regs],
            splits: warps.iter().map(|w| SplitTable::new(w.ready)).collect(),
            warps,
            blocks: vec![BlockSync::default(); grid_dim as usize],
            shared: vec![0; grid_dim as usize * kernel.shared_words],
            lane_scratch: Vec::with_capacity(WARP_SIZE),
            tid_scratch: Vec::with_capacity(WARP_SIZE),
        }
    }

    /// Whether warp `w` has a runnable lane whose next instruction is
    /// invisible (eligible for eager execution).
    fn has_invisible_runnable(&self, w: usize) -> bool {
        let ready = self.warps[w].ready;
        self.splits[w]
            .groups()
            .iter()
            .any(|g| g.mask & ready != 0 && !instr_is_visible(&self.code[g.pc as usize].instr))
    }

    /// Releases block `bi`'s barrier if every live thread has arrived;
    /// true if a release happened.
    fn release_block_barrier(&mut self, bi: usize) -> bool {
        let b = &mut self.blocks[bi];
        if b.arrived == 0 || b.arrived + b.exited != self.block_dim {
            return false;
        }
        b.arrived = 0;
        let wpb = self.warps_per_block as usize;
        for warp in &mut self.warps[bi * wpb..(bi + 1) * wpb] {
            warp.ready |= std::mem::take(&mut warp.at_block_bar);
        }
        true
    }
}

/// One predecoded instruction: the raw [`Instr`] plus its launch-invariant
/// dispatch data, resolved once per launch instead of per dynamic
/// execution.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    instr: Instr,
    /// Native cycles charged per execution (per participating lane for
    /// atomics, whose conflicting RMWs serialize on hardware).
    cost: u64,
    /// Serial (critical-path) cycles per lane; non-zero only for atomics
    /// (the L2 ROP / SM atomic unit processes RMWs to a line one at a
    /// time).
    serial_cost: u64,
}

/// Resolves the static cost table against each instruction of `code`.
fn predecode(code: &[Instr], cost: &CostModel) -> Vec<Decoded> {
    code.iter()
        .map(|&instr| {
            let (c, s) = match instr {
                Instr::Bra { .. } | Instr::BraIf { .. } | Instr::BraIfNot { .. } => {
                    (cost.branch, 0)
                }
                Instr::Ld { space, .. } => match space {
                    Space::Shared => (cost.ld_shared, 0),
                    Space::Global => (cost.ld_global, 0),
                },
                Instr::St { space, .. } => match space {
                    Space::Shared => (cost.st_shared, 0),
                    Space::Global => (cost.st_global, 0),
                },
                Instr::Atom { scope, .. } => match scope {
                    crate::ir::Scope::Block => (cost.atom_block, 1),
                    crate::ir::Scope::Device => (cost.atom_device, 2),
                },
                Instr::Membar { scope } => match scope {
                    crate::ir::Scope::Block => (cost.membar_block, 0),
                    crate::ir::Scope::Device => (cost.membar_device, 0),
                },
                Instr::BarSync => (cost.bar_sync, 0),
                Instr::BarWarp => (cost.bar_warp, 0),
                _ => (cost.alu, 0),
            };
            Decoded {
                instr,
                cost: c,
                serial_cost: s,
            }
        })
        .collect()
}

/// Whether an instruction can affect or observe memory shared between
/// threads. Everything else (ALU, branches, moves, barrier arrivals,
/// exits) commutes with every concurrently enabled transition: it touches
/// only the executing thread's private state, or — for barrier arrivals
/// and exits — monotonically *enables* other threads without ever
/// disabling one. Eager-invisible scheduling (the litmus oracle's partial-
/// order reduction) therefore executes invisible instructions first,
/// without consulting the scheduler, and provably visits every
/// distinguishable outcome the full interleaving space contains.
fn instr_is_visible(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. } | Instr::Membar { .. }
    )
}

/// Calls `f(lane)` for every lane of `mask`, ascending. A full mask — the
/// common case — takes a dense `0..32` loop that the compiler unrolls and
/// vectorises over contiguous rows.
#[inline(always)]
fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    if mask == FULL_MASK {
        for l in 0..WARP_SIZE {
            f(l);
        }
    } else {
        let mut rest = mask;
        while rest != 0 {
            f(rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Chooses the lanes of a warp to execute next: the index of their group
/// in `table` and, as a mask, the lanes themselves — `ready` are the
/// warp's runnable lanes; the mask is 0 iff no lane is runnable. All
/// non-forced choices are delegated to `sched`; the scheduler is not
/// consulted at all when the warp has no runnable lane, so the production
/// round-robin scan consumes no randomness while skipping idle warps.
fn pick_split(
    ready: u32,
    table: &SplitTable,
    mode: ExecMode,
    sched: &mut dyn Scheduler,
    eager: bool,
    code: &[Decoded],
) -> (usize, u32) {
    let its = mode == ExecMode::Its;
    // The groups with a runnable lane, i.e. the runnable lanes' distinct
    // pcs in ascending order.
    let candidates = || {
        let groups = table.groups().iter().enumerate();
        groups.filter(|(_, g)| g.mask & ready != 0)
    };
    let chosen = if its {
        // Eager mode: the lowest invisible pc runs deterministically — no
        // decision, no branch in the enumeration tree.
        let invisible = |g: &Group| !instr_is_visible(&code[g.pc as usize].instr);
        let eager_pick = if eager {
            candidates().find(|(_, g)| invisible(g))
        } else {
            None
        };
        // One candidate is a converged warp. The scheduler is still
        // consulted: the production scheduler historically drew from its
        // RNG there, and the byte-identity contract preserves every draw.
        eager_pick.or_else(|| match candidates().count() {
            0 => None,
            n => candidates().nth(sched.choose_pc(n).min(n - 1)),
        })
    } else {
        // Lockstep: the split at the minimum pc, so diverged lanes
        // reconverge eagerly.
        candidates().next()
    };
    let Some((group, &Group { mask, .. })) = chosen else {
        return (0, 0);
    };
    let mut split = mask & ready;
    // Under ITS, converged threads may split apart at any time. Eager mode
    // skips subdivision: the oracle's completeness argument covers intact
    // splits only, and skipping keeps eager traces free of filler tokens.
    let len = split.count_ones() as usize;
    if its && len > 1 && !eager {
        if let Some((start, keep)) = sched.choose_subdivision(len) {
            let keep = keep.clamp(1, len - 1);
            let start = start.min(len - keep);
            // Keep the set bits of rank `start..start + keep`.
            let mut rest = split;
            for _ in 0..start {
                rest &= rest - 1;
            }
            split = 0;
            for _ in 0..keep {
                split |= rest & rest.wrapping_neg();
                rest &= rest - 1;
            }
        }
    }
    (group, split)
}

/// A register row, or an immediate in every lane.
fn operand(regs: &[Row], o: Operand) -> Row {
    match o {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => [v; WARP_SIZE],
    }
}

/// Computes each participating lane's effective address into the reused
/// `out` scratch buffer, ascending by lane.
fn gather_accesses(split: u32, warp_base: u32, base: &Row, offset: i32, out: &mut Vec<LaneAccess>) {
    out.clear();
    for_lanes(split, |l| {
        out.push(LaneAccess {
            lane: l as u32,
            tid_in_block: warp_base + l as u32,
            addr: base[l].wrapping_add(offset as u32),
        });
    });
}

fn load_shared(shared: &[u32], addr: u32) -> Result<u32, SimError> {
    if !addr.is_multiple_of(4) {
        return Err(SimError::UnalignedAccess { addr });
    }
    let w = (addr / 4) as usize;
    shared.get(w).copied().ok_or(SimError::SharedOutOfBounds {
        addr,
        words: shared.len(),
    })
}

fn store_shared(shared: &mut [u32], addr: u32, v: u32) -> Result<(), SimError> {
    if !addr.is_multiple_of(4) {
        return Err(SimError::UnalignedAccess { addr });
    }
    let w = (addr / 4) as usize;
    match shared.get_mut(w) {
        Some(slot) => {
            *slot = v;
            Ok(())
        }
        None => Err(SimError::SharedOutOfBounds {
            addr,
            words: shared.len(),
        }),
    }
}

/// `out[l] = a[l] <op> b[l]` over the lanes of `split`, dispatched once
/// per split; false (and nothing written) if an active lane divides by
/// zero.
fn alu_lanes(op: AluOp, split: u32, a: &Row, b: &Row, out: &mut Row) -> bool {
    macro_rules! lanes {
        ($f:expr) => {
            for_lanes(split, |l| out[l] = $f(a[l], b[l]))
        };
    }
    match op {
        AluOp::Add => lanes!(u32::wrapping_add),
        AluOp::Sub => lanes!(u32::wrapping_sub),
        AluOp::Mul => lanes!(u32::wrapping_mul),
        AluOp::Div | AluOp::Rem => {
            let mut by_zero = false;
            for_lanes(split, |l| by_zero |= b[l] == 0);
            if by_zero {
                return false;
            }
            if op == AluOp::Div {
                lanes!(|x, y| x / y);
            } else {
                lanes!(|x, y| x % y);
            }
        }
        AluOp::Min => lanes!(u32::min),
        AluOp::Max => lanes!(u32::max),
        AluOp::And => lanes!(|x, y| x & y),
        AluOp::Or => lanes!(|x, y| x | y),
        AluOp::Xor => lanes!(|x, y| x ^ y),
        AluOp::Shl => lanes!(u32::wrapping_shl),
        AluOp::Shr => lanes!(u32::wrapping_shr),
    }
    true
}

/// `out[l] = (a[l] <op> b[l]) as u32` over the lanes of `split`.
fn cmp_lanes(op: CmpOp, split: u32, a: &Row, b: &Row, out: &mut Row) {
    macro_rules! lanes {
        ($f:expr) => {
            for_lanes(split, |l| out[l] = u32::from($f(a[l], b[l])))
        };
    }
    match op {
        CmpOp::Eq => lanes!(|x, y| x == y),
        CmpOp::Ne => lanes!(|x, y| x != y),
        CmpOp::Lt => lanes!(|x, y| x < y),
        CmpOp::Le => lanes!(|x, y| x <= y),
        CmpOp::Gt => lanes!(|x, y| x > y),
        CmpOp::Ge => lanes!(|x, y| x >= y),
        CmpOp::SLt => lanes!(|x: u32, y: u32| (x as i32) < (y as i32)),
        CmpOp::SGt => lanes!(|x: u32, y: u32| (x as i32) > (y as i32)),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::asm::KernelBuilder;
    use crate::hook::NullHook;
    use proptest::prelude::*;

    /// A lane's state as the per-thread machine of PR 14 kept it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum LaneState {
        Ready,
        AtBlockBar,
        AtWarpBar,
        Exited,
    }

    /// The `Vec`-based split choice the mask `pick_split` replaced, kept
    /// verbatim as the reference: gather the ready lanes, sort and dedup
    /// their pcs, choose, retain, subdivide by draining.
    fn reference_pick_split(
        threads: &[(LaneState, usize)],
        mode: ExecMode,
        sched: &mut dyn Scheduler,
        eager: bool,
        code: &[Decoded],
    ) -> Vec<usize> {
        let mut out: Vec<usize> = (0..threads.len())
            .filter(|&l| threads[l].0 == LaneState::Ready)
            .collect();
        if out.is_empty() {
            return out;
        }
        let chosen_pc = match mode {
            ExecMode::Lockstep => out.iter().map(|&l| threads[l].1).min().unwrap(),
            ExecMode::Its => {
                let mut pcs: Vec<usize> = out.iter().map(|&l| threads[l].1).collect();
                pcs.sort_unstable();
                pcs.dedup();
                let eager_pc = if eager {
                    pcs.iter()
                        .copied()
                        .find(|&p| !instr_is_visible(&code[p].instr))
                } else {
                    None
                };
                match eager_pc {
                    Some(p) => p,
                    None => pcs[sched.choose_pc(pcs.len()).min(pcs.len() - 1)],
                }
            }
        };
        out.retain(|&l| threads[l].1 == chosen_pc);
        if mode == ExecMode::Its && out.len() > 1 && !eager {
            if let Some((start, keep)) = sched.choose_subdivision(out.len()) {
                let keep = keep.clamp(1, out.len() - 1);
                let start = start.min(out.len() - keep);
                out.drain(..start);
                out.truncate(keep);
            }
        }
        out
    }

    /// Answers from a seeded stream — in and out of range, so the clamps
    /// are exercised — and records every question it is asked.
    struct Scripted {
        rng: proptest::TestRng,
        calls: Vec<(&'static str, usize)>,
    }

    impl Scripted {
        fn new(seed: u64) -> Self {
            Scripted {
                rng: proptest::TestRng::from_seed(seed),
                calls: Vec::new(),
            }
        }
    }

    impl Scheduler for Scripted {
        fn begin_launch(&mut self, _ctx: &LaunchContext) {}

        fn choose_pc(&mut self, n: usize) -> usize {
            self.calls.push(("pc", n));
            self.rng.below(n as u64 + 2) as usize
        }

        fn choose_subdivision(&mut self, len: usize) -> Option<(usize, usize)> {
            self.calls.push(("subdivision", len));
            let (start, keep) = (self.rng.below(40), self.rng.below(40));
            (self.rng.below(3) > 0).then_some((start as usize, keep as usize))
        }
    }

    /// Eight pcs, visible and invisible interleaved.
    fn mixed_code() -> Vec<Decoded> {
        let ld = Instr::Ld {
            rd: crate::ir::Reg(0),
            addr: crate::ir::Reg(1),
            offset: 0,
            space: Space::Global,
            volatile: false,
        };
        let code = [ld, Instr::Nop, ld, ld, Instr::BarSync, ld, Instr::Exit, ld];
        predecode(&code, &CostModel::default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The mask `pick_split` picks the lanes the `Vec` one picked and
        /// asks the scheduler the same questions in the same order, in
        /// ITS, lockstep and eager modes.
        #[test]
        fn mask_pick_split_matches_the_vec_reference(
            lanes in prop::collection::vec((0u32..6, 0usize..8), 1..WARP_SIZE + 1),
            // 1 makes every lane share a pc (the converged fast path).
            spread in 1usize..9,
            its in any::<bool>(),
            eager in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let code = mixed_code();
            let mode = if its { ExecMode::Its } else { ExecMode::Lockstep };
            let threads: Vec<(LaneState, usize)> = lanes
                .iter()
                .map(|&(s, pc)| {
                    let status = match s {
                        0 => LaneState::AtBlockBar,
                        1 => LaneState::AtWarpBar,
                        2 => LaneState::Exited,
                        _ => LaneState::Ready,
                    };
                    (status, lanes[0].1 + pc % spread)
                })
                .map(|(s, pc)| (s, pc % code.len()))
                .collect();
            // Exited lanes (and those past a partial warp's end) are not in
            // the table; barrier lanes are, but not ready.
            let mut ready = 0u32;
            let mut table = SplitTable::new(0);
            for (l, &(status, pc)) in threads.iter().enumerate() {
                ready |= u32::from(status == LaneState::Ready) << l;
                if status != LaneState::Exited {
                    table.insert(pc as u32, 1 << l);
                }
            }

            let mut want_sched = Scripted::new(seed);
            let want = reference_pick_split(&threads, mode, &mut want_sched, eager, &code);
            let mut got_sched = Scripted::new(seed);
            let (group, got) = pick_split(ready, &table, mode, &mut got_sched, eager, &code);

            let want_mask = want.iter().fold(0u32, |m, &l| m | 1 << l);
            prop_assert_eq!(got, want_mask, "lanes differ");
            prop_assert_eq!(got_sched.calls, want_sched.calls, "scheduler calls differ");
            if let Some(&l) = want.first() {
                prop_assert_eq!(table.groups()[group].pc as usize, threads[l].1, "group differs");
            }
        }

        /// Random advances, two-way branches, exits and barrier arrivals
        /// and releases on random sub-masks: after each, the table is the
        /// pc row's un-exited lanes grouped by pc.
        #[test]
        fn split_table_matches_a_pc_row(
            ops in prop::collection::vec((0u32..5, any::<u32>(), any::<u32>(), 0u32..12), 1..200),
        ) {
            let mut row = ModelWarp::new(FULL_MASK);
            for (op, pick, part, target) in ops {
                let waiting = row.live & !row.ready;
                if op == 4 && waiting != 0 {
                    // Barrier release: waiting lanes become ready where
                    // they are.
                    row.ready |= waiting & (part | 1 << waiting.trailing_zeros());
                    row.check();
                    continue;
                }
                if row.ready == 0 {
                    continue;
                }
                // A split: some of the ready lanes of one group.
                let ready_groups: Vec<usize> = (0..row.table.len)
                    .filter(|&g| row.table.groups()[g].mask & row.ready != 0)
                    .collect();
                let g = ready_groups[pick as usize % ready_groups.len()];
                let Group { pc, mask } = row.table.groups()[g];
                let runnable = mask & row.ready;
                let split = runnable & (part | 1 << runnable.trailing_zeros());
                row.table.remove(g, split);
                match op {
                    // (4 with nobody waiting is one more advance.)
                    0 | 4 => row.advance(split, pc + 1),
                    1 => {
                        let taken = split & pick.rotate_left(7);
                        row.advance(taken, target);
                        row.advance(split & !taken, pc + 1);
                    }
                    2 => {
                        row.live &= !split;
                        row.ready &= !split;
                    }
                    // Barrier arrival.
                    _ => {
                        row.advance(split, pc + 1);
                        row.ready &= !split;
                    }
                }
                row.check();
            }
        }
    }

    /// The lanes of a warp whose pc is `pc`.
    fn lanes_at(pcs: &Row, pc: u32) -> u32 {
        let mut mask = 0;
        for (l, &p) in pcs.iter().enumerate() {
            mask |= u32::from(p == pc) << l;
        }
        mask
    }

    /// A [`SplitTable`] beside the per-lane pc row it replaced.
    struct ModelWarp {
        pcs: Row,
        /// Un-exited lanes, and those of them not waiting at a barrier.
        live: u32,
        ready: u32,
        table: SplitTable,
    }

    impl ModelWarp {
        fn new(live: u32) -> Self {
            ModelWarp {
                pcs: [0; WARP_SIZE],
                live,
                ready: live,
                table: SplitTable::new(live),
            }
        }

        /// Moves the lanes of `mask`, already removed from their group.
        fn advance(&mut self, mask: u32, pc: u32) {
            for_lanes(mask, |l| self.pcs[l] = pc);
            self.table.insert(pc, mask);
        }

        /// The groups are exactly the sorted distinct pcs of the un-exited
        /// lanes, each with the lanes the row has there.
        fn check(&self) {
            let mut want: Vec<u32> = Vec::new();
            for_lanes(self.live, |l| want.push(self.pcs[l]));
            want.sort_unstable();
            want.dedup();
            let want: Vec<Group> = want
                .into_iter()
                .map(|pc| Group {
                    pc,
                    mask: self.live & lanes_at(&self.pcs, pc),
                })
                .collect();
            assert_eq!(self.table.groups(), &want[..]);
        }
    }

    #[test]
    fn split_table_holds_32_groups_and_reconverges() {
        let mut row = ModelWarp::new(FULL_MASK);
        // Peel one lane off the bottom group at a time: lane `l` ends at
        // pc `32 - l`, descending inserts at the front.
        for l in 0..WARP_SIZE as u32 {
            row.table.remove(0, 1 << l);
            row.advance(1 << l, 32 - l);
            row.check();
        }
        assert_eq!(row.table.len, WARP_SIZE);
        // Walk every group up to pc 40: each merges into its neighbour.
        while row.table.len > 1 || row.table.groups()[0].pc < 40 {
            let Group { pc, mask } = row.table.groups()[0];
            row.table.remove(0, mask);
            row.advance(mask, pc + 1);
            row.check();
        }
        assert_eq!(
            row.table.groups(),
            [Group {
                pc: 40,
                mask: FULL_MASK
            }]
        );
    }

    /// Counts barrier releases.
    #[derive(Default)]
    struct Releases {
        block: u32,
        warp: u32,
    }

    impl Hook for Releases {
        fn on_sync(&mut self, e: &SyncEvent<'_>, _clock: &mut Clock) {
            match e {
                SyncEvent::BlockBarrier { .. } => self.block += 1,
                SyncEvent::WarpBarrier { .. } => self.warp += 1,
                SyncEvent::Fence { .. } => {}
            }
        }
    }

    fn gpu(mode: ExecMode, seed: u64) -> Gpu {
        Gpu::new(GpuConfig {
            mem_words: 1 << 14,
            mode,
            seed,
            ..GpuConfig::default()
        })
    }

    const MODES: [(ExecMode, u64); 4] = [
        (ExecMode::Lockstep, 0),
        (ExecMode::Its, 1),
        (ExecMode::Its, 2),
        (ExecMode::Its, 3),
    ];

    /// Every thread passes a block barrier and a warp barrier, then
    /// records its lane id + 1 at `out[gtid]`.
    fn barrier_then_store() -> Kernel {
        let mut b = KernelBuilder::new("barrier_then_store");
        let out = b.param(0);
        let g = b.special(Special::GlobalTid);
        let lane = b.special(Special::LaneId);
        b.syncthreads();
        b.syncwarp();
        let off = b.mul(g, 4u32);
        let a = b.add(out, off);
        let v = b.add(lane, 1u32);
        b.st(a, 0, v);
        b.build()
    }

    #[test]
    fn partial_last_warp_runs_only_its_live_lanes() {
        for block_dim in [1u32, 33] {
            for (mode, seed) in MODES {
                let mut gpu = gpu(mode, seed);
                let grid = 3;
                let n = (grid * block_dim) as usize;
                let out = gpu.alloc(n + 64).unwrap();
                let k = barrier_then_store();
                let mut hook = Releases::default();
                let stats = gpu.launch(&k, grid, block_dim, &[out], &mut hook).unwrap();
                let want: Vec<u32> = (0..n as u32).map(|i| (i % block_dim) % 32 + 1).collect();
                assert_eq!(
                    gpu.read_slice(out, n),
                    want,
                    "block_dim {block_dim} {mode:?}"
                );
                // Lanes beyond `block_dim` never ran: nothing past `n`.
                assert_eq!(gpu.read_slice(out, n + 64)[n..], [0; 64]);
                assert_eq!(stats.lane_instrs, k.code.len() as u64 * n as u64);
                assert_eq!(hook.block, grid);
                assert_eq!(hook.warp, grid * block_dim.div_ceil(32));
            }
        }
    }

    /// Threads with `tid < quitters` leave without reaching the barrier;
    /// with `late`, they leave after the others have arrived, so the exit
    /// is what releases the barrier.
    fn barrier_with_quitters(quitters: u32, warp_level: bool, late: bool) -> Kernel {
        let mut b = KernelBuilder::new("barrier_with_quitters");
        let out = b.param(0);
        let tid = b.special(Special::Tid);
        let quits = b.lt(tid, quitters);
        let quit_l = b.fwd_label();
        let wait_l = b.fwd_label();
        // Lockstep runs the lowest pc first: place the quitters' path
        // after the barrier to make them late, before it to make them
        // early.
        if late {
            b.bra_if(quits, quit_l);
        } else {
            b.bra_ifnot(quits, wait_l);
            b.exit();
        }
        b.bind(wait_l);
        if warp_level {
            b.syncwarp();
        } else {
            b.syncthreads();
        }
        let off = b.mul(tid, 4u32);
        let a = b.add(out, off);
        let one = b.imm(1);
        b.st(a, 0, one);
        b.exit();
        b.bind(quit_l);
        b.exit();
        b.build()
    }

    #[test]
    fn barriers_release_when_the_missing_lanes_have_exited() {
        let (block_dim, quitters) = (96u32, 40u32);
        for warp_level in [false, true] {
            for late in [false, true] {
                for (mode, seed) in MODES {
                    let mut gpu = gpu(mode, seed);
                    let out = gpu.alloc(block_dim as usize).unwrap();
                    let k = barrier_with_quitters(quitters, warp_level, late);
                    let mut hook = Releases::default();
                    gpu.launch(&k, 1, block_dim, &[out], &mut hook)
                        .unwrap_or_else(|e| panic!("warp {warp_level} late {late} {mode:?}: {e}"));
                    let want: Vec<u32> = (0..block_dim).map(|t| u32::from(t >= quitters)).collect();
                    assert_eq!(gpu.read_slice(out, block_dim as usize), want);
                    if warp_level {
                        // Warp 0 exits whole; warps 1 (partly) and 2 wait.
                        assert!(hook.warp >= 2, "warp barriers released: {}", hook.warp);
                        assert_eq!(hook.block, 0);
                    } else {
                        assert_eq!(hook.block, 1, "late {late} {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_barrier_spans_a_1024_thread_block() {
        // Each thread publishes to the scratchpad, then reads its right
        // neighbour's slot across the barrier: 32 warps, one release each
        // of two rounds.
        let mut b = KernelBuilder::new("rotate_1024");
        b.shared(1024);
        let out = b.param(0);
        let tid = b.special(Special::Tid);
        let soff = b.mul(tid, 4u32);
        b.st_shared(soff, 0, tid);
        b.syncthreads();
        let next = b.add(tid, 1u32);
        let wrapped = b.rem(next, 1024u32);
        let noff = b.mul(wrapped, 4u32);
        let v = b.ld_shared(noff, 0);
        b.syncthreads();
        let g = b.special(Special::GlobalTid);
        let goff = b.mul(g, 4u32);
        let a = b.add(out, goff);
        b.st(a, 0, v);
        let k = b.build();
        for (mode, seed) in MODES {
            let mut gpu = gpu(mode, seed);
            let out = gpu.alloc(2048).unwrap();
            let mut hook = Releases::default();
            gpu.launch(&k, 2, 1024, &[out], &mut hook).unwrap();
            let want: Vec<u32> = (0..2048u32).map(|i| (i % 1024 + 1) % 1024).collect();
            assert!(gpu.read_slice(out, 2048) == want, "{mode:?}");
            assert_eq!(hook.block, 4);
        }
    }

    #[test]
    fn a_kernel_that_can_fall_off_its_end_is_a_bad_launch() {
        let cond = crate::ir::Reg(0);
        let mut gpu = gpu(ExecMode::Its, 0);
        for tail in [Instr::Nop, Instr::BraIf { cond, target: 0 }] {
            let k = Kernel::new("k", vec![tail], 0);
            let run = gpu.launch(&k, 1, 32, &[], &mut NullHook);
            let Err(SimError::BadLaunch { reason }) = run else {
                panic!("{tail:?}: {run:?}");
            };
            assert_eq!(reason, "kernel `k` can run past its last instruction");
        }
        // Ending in an unconditional branch is fine: pc 1 exits, pc 2
        // jumps back to it.
        let code = vec![
            Instr::Bra { target: 2 },
            Instr::Exit,
            Instr::Bra { target: 1 },
        ];
        let k = Kernel::new("k", code, 0);
        let stats = gpu.launch(&k, 1, 32, &[], &mut NullHook).unwrap();
        assert_eq!(stats.lane_instrs, 3 * 32);
    }

    #[test]
    fn launch_geometry_overflow_is_a_bad_launch() {
        let k = barrier_then_store();
        let mut gpu = gpu(ExecMode::Its, 0);
        // `grid * block` overflows; `grid * warps_per_block` (2^27) fits.
        let threads = gpu.launch(&k, 1 << 22, 1024, &[0], &mut NullHook);
        assert!(
            matches!(threads, Err(SimError::BadLaunch { .. })),
            "{threads:?}"
        );
        // Both products overflow (33 threads round up to two warps).
        let warps = gpu.launch(&k, 1 << 31, 33, &[0], &mut NullHook);
        assert!(
            matches!(warps, Err(SimError::BadLaunch { .. })),
            "{warps:?}"
        );
    }
}
