//! # nvbit-sim: dynamic binary instrumentation for the simulated GPU
//!
//! iGUARD is implemented as an NVBit tool (§5): NVBit inspects the SASS of
//! each kernel as it is loaded, lets the tool pick instrumentation points,
//! and injects device-function callbacks — **no recompilation or source
//! access**, which is what lets the detector attach to closed-source
//! libraries. This crate reproduces that layer over `gpu-sim`:
//!
//! - [`inspect`] — static analysis of loaded kernel objects (the
//!   `nvbit_get_instrs` analogue);
//! - [`Tool`] — the tool-side interface (`instrument` + runtime callbacks);
//! - [`Instrumented`] — the adapter that mounts a tool onto the GPU's hook
//!   interface, charging realistic *framework* costs: one-time binary
//!   analysis per kernel (Figure 13's "NVBit" bar) and per-dynamic-callback
//!   dispatch overhead (Figure 13's "Instrumentation" bar);
//! - [`channel`] — a device→host channel with per-record shipping costs
//!   (what Barracuda pays for every event, and iGUARD only for race
//!   reports).

#![forbid(unsafe_code)]

pub mod channel;
pub mod inspect;

use gpu_sim::hook::{Hook, LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::timing::{Clock, CostCategory};

use std::sync::Arc;

/// One-time binary analysis + injection cycles per static instruction of
/// each kernel (SASS disassembly, CFG build, patching); charged serially.
const ANALYSIS_COST_PER_INSTR: u64 = 1;
/// Fixed one-time cycles per kernel (module load, relocation); charged
/// serially.
const ANALYSIS_COST_FIXED: u64 = 60;
/// Dispatch cycles per instrumented dynamic memory access (spill, call
/// injected device function, restore) — charged even if the tool then
/// does nothing.
const CALLBACK_COST_MEM: u64 = 6;
/// Dispatch cycles per instrumented dynamic synchronization operation.
const CALLBACK_COST_SYNC: u64 = 4;

/// The interface an instrumentation tool (iGUARD, Barracuda, ...) presents
/// to the framework. Mirrors NVBit's tool API shape: a static `instrument`
/// decision made once per kernel, when it loads, plus runtime callbacks.
pub trait Tool {
    /// The per-pc "inject a callback here" bitmap for `kernel`, one entry
    /// per static instruction. The whole kernel is in view, so a tool can
    /// consult a per-kernel static analysis (hybrid static/dynamic
    /// pruning). The default instruments all global-memory accesses and
    /// synchronization operations — exactly iGUARD's selection (§5).
    fn instrument(&mut self, kernel: &gpu_sim::kernel::Kernel) -> Vec<bool> {
        kernel
            .code
            .iter()
            .map(|i| i.is_global_access() || i.is_sync())
            .collect()
    }

    /// Whether the instrumentation decision depends on the kernel *body*
    /// rather than the instruction stream's name alone. NVBit caches
    /// instrumented functions by name; a pruning tool must opt in here so
    /// the framework validates the cached bitmap against the kernel body
    /// (two same-named kernels with different bodies must not share a
    /// pruned bitmap) instead of trusting the name.
    fn body_sensitive(&self) -> bool {
        false
    }

    /// Kernel launch (after framework analysis).
    fn at_launch(&mut self, _info: &LaunchInfo, _clock: &mut Clock) {}

    /// Kernel completion.
    fn at_exit(&mut self, _info: &LaunchInfo, _clock: &mut Clock) {}

    /// An instrumented dynamic global-memory access.
    fn on_mem(&mut self, _access: &MemAccess<'_>, _clock: &mut Clock) {}

    /// An instrumented dynamic synchronization operation.
    fn on_sync(&mut self, _event: &SyncEvent<'_>, _clock: &mut Clock) {}
}

/// Dynamic dispatch accounting of an [`Instrumented`] mount. With static
/// pruning active, `skipped_mem` counts exactly the dynamic accesses whose
/// callback (and any downstream channel traffic / detector work) was
/// elided; with pruning off it stays 0 for tools using the default
/// predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrStats {
    /// Kernels analyzed (bitmaps built).
    pub analyzed_kernels: u64,
    /// Dynamic memory callbacks dispatched to the tool.
    pub dispatched_mem: u64,
    /// Dynamic memory accesses whose callback was skipped by the bitmap.
    pub skipped_mem: u64,
    /// Dynamic synchronization callbacks dispatched to the tool.
    pub dispatched_sync: u64,
}

struct MapEntry {
    name: Arc<str>,
    map: Vec<bool>,
    /// The analyzed kernel body, kept only for body-sensitive tools so the
    /// name-keyed cache can refuse to alias distinct bodies.
    body: Option<Vec<gpu_sim::ir::Instr>>,
}

/// Mounts a [`Tool`] onto the GPU as a [`Hook`], adding framework costs.
///
/// Analysis runs once per kernel *name* (NVBit caches instrumented
/// functions); the per-pc bitmap the tool's [`Tool::instrument`] returns
/// then gates callbacks so un-instrumented instructions run at native
/// speed. For [`Tool::body_sensitive`] tools the cache
/// additionally validates the kernel body on the string-equality fallback
/// path, re-analyzing (and re-charging) when two same-named kernels have
/// different bodies.
pub struct Instrumented<T: Tool> {
    tool: T,
    /// kernel name → per-pc "has callback" bitmap. Kernel names are
    /// interned (`Arc<str>`), so the common case — consecutive accesses
    /// from the same kernel object — resolves with one pointer compare
    /// against `cursor` instead of hashing the name per access.
    maps: Vec<MapEntry>,
    /// Index into `maps` of the most recently resolved kernel.
    cursor: usize,
    stats: InstrStats,
}

impl<T: Tool> Instrumented<T> {
    /// Wraps `tool`, charging the fixed framework costs (analysis once per
    /// kernel, dispatch per callback).
    pub fn new(tool: T) -> Self {
        Instrumented {
            tool,
            maps: Vec::new(),
            cursor: 0,
            stats: InstrStats::default(),
        }
    }

    /// Dispatch/skip accounting for this mount.
    pub fn instr_stats(&self) -> InstrStats {
        self.stats
    }

    /// The wrapped tool.
    pub fn tool(&self) -> &T {
        &self.tool
    }

    /// Mutable access to the wrapped tool (drain reports, read stats).
    pub fn tool_mut(&mut self) -> &mut T {
        &mut self.tool
    }

    /// Resolves (analyzing on first sight) the bitmap index for `kernel`.
    fn map_index(&mut self, kernel: &gpu_sim::kernel::Kernel, clock: &mut Clock) -> usize {
        if let Some(e) = self.maps.get(self.cursor) {
            if Arc::ptr_eq(&e.name, &kernel.name) {
                return self.cursor;
            }
        }
        if let Some(i) = self.maps.iter().position(|e| {
            Arc::ptr_eq(&e.name, &kernel.name)
                || (*e.name == *kernel.name && e.body.as_ref().is_none_or(|b| *b == kernel.code))
        }) {
            self.cursor = i;
            return i;
        }
        // One-time, host-side (serial) binary analysis.
        let cost = ANALYSIS_COST_FIXED + ANALYSIS_COST_PER_INSTR * kernel.code.len() as u64;
        clock.charge_serial(CostCategory::Nvbit, cost);
        self.stats.analyzed_kernels += 1;
        let map = self.tool.instrument(kernel);
        let body = self.tool.body_sensitive().then(|| kernel.code.clone());
        self.maps.push(MapEntry {
            name: kernel.name.clone(),
            map,
            body,
        });
        self.cursor = self.maps.len() - 1;
        self.cursor
    }
}

impl<T: Tool> Hook for Instrumented<T> {
    fn on_kernel_launch(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        self.tool.at_launch(info, clock);
    }

    fn on_kernel_end(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        self.tool.at_exit(info, clock);
    }

    fn on_mem_access(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        let idx = self.map_index(access.kernel, clock);
        if !self.maps[idx].map.get(access.pc).copied().unwrap_or(false) {
            self.stats.skipped_mem += 1;
            return;
        }
        self.stats.dispatched_mem += 1;
        clock.charge(CostCategory::Instrumentation, CALLBACK_COST_MEM);
        self.tool.on_mem(access, clock);
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, clock: &mut Clock) {
        // Barrier releases carry no kernel/pc; they are always relevant to
        // tools that instrument synchronization, so dispatch them all.
        // (Static pruning gates memory callbacks only: sync metadata stays
        // warm even for fully pruned kernels, and the per-event cost is the
        // small `CALLBACK_COST_SYNC`.)
        self.stats.dispatched_sync += 1;
        clock.charge(CostCategory::Instrumentation, CALLBACK_COST_SYNC);
        self.tool.on_sync(event, clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;

    /// Tool that counts callbacks and records what it saw.
    #[derive(Default)]
    struct Probe {
        mems: u64,
        syncs: u64,
        launches: u64,
        exits: u64,
    }

    impl Tool for Probe {
        fn at_launch(&mut self, _i: &LaunchInfo, _c: &mut Clock) {
            self.launches += 1;
        }
        fn at_exit(&mut self, _i: &LaunchInfo, _c: &mut Clock) {
            self.exits += 1;
        }
        fn on_mem(&mut self, _a: &MemAccess<'_>, _c: &mut Clock) {
            self.mems += 1;
        }
        fn on_sync(&mut self, _e: &SyncEvent<'_>, _c: &mut Clock) {
            self.syncs += 1;
        }
    }

    fn test_kernel() -> Kernel {
        let mut b = KernelBuilder::new("probe_me");
        let base = b.param(0);
        let tid = b.special(Special::Tid);
        let off = b.mul(tid, 4u32);
        let addr = b.add(base, off);
        let v = b.ld(addr, 0);
        let v2 = b.add(v, 1u32);
        b.st(addr, 0, v2);
        b.syncthreads();
        b.membar(Scope::Device);
        b.build()
    }

    #[test]
    fn tool_receives_instrumented_events() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let buf = gpu.alloc(64).unwrap();
        let mut inst = Instrumented::new(Probe::default());
        gpu.launch(&test_kernel(), 1, 32, &[buf], &mut inst)
            .unwrap();
        let p = inst.tool();
        assert_eq!(p.launches, 1);
        assert_eq!(p.exits, 1);
        assert!(p.mems >= 2, "load + store splits, got {}", p.mems);
        assert!(p.syncs >= 2, "barrier + fence, got {}", p.syncs);
    }

    #[test]
    fn binary_analysis_charged_once_per_kernel() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let buf = gpu.alloc(64).unwrap();
        let mut inst = Instrumented::new(Probe::default());
        let k = test_kernel();
        gpu.launch(&k, 1, 32, &[buf], &mut inst).unwrap();
        let after_first = gpu.clock().raw(CostCategory::Nvbit).1;
        assert!(after_first > 0);
        gpu.launch(&k, 1, 32, &[buf], &mut inst).unwrap();
        let after_second = gpu.clock().raw(CostCategory::Nvbit).1;
        assert_eq!(after_first, after_second, "NVBit analysis must be cached");
    }

    #[test]
    fn dispatch_cost_charged_per_dynamic_callback() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let buf = gpu.alloc(64).unwrap();
        let mut inst = Instrumented::new(Probe::default());
        gpu.launch(&test_kernel(), 1, 32, &[buf], &mut inst)
            .unwrap();
        let (par, _) = gpu.clock().raw(CostCategory::Instrumentation);
        assert!(par > 0, "instrumentation dispatch must cost cycles");
    }

    /// A tool that opts out of everything sees no memory callbacks and
    /// costs (almost) nothing — NVBit's selective instrumentation.
    struct Selective;

    impl Tool for Selective {
        fn instrument(&mut self, k: &Kernel) -> Vec<bool> {
            vec![false; k.code.len()]
        }
    }

    #[test]
    fn uninstrumented_instructions_run_without_dispatch_cost() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let buf = gpu.alloc(64).unwrap();
        let mut inst = Instrumented::new(Selective);
        gpu.launch(&test_kernel(), 1, 32, &[buf], &mut inst)
            .unwrap();
        let (mem_dispatch, _) = gpu.clock().raw(CostCategory::Instrumentation);
        // Only sync dispatches remain (they carry no pc filter).
        assert!(mem_dispatch <= CALLBACK_COST_SYNC * 4, "got {mem_dispatch}");
    }

    /// A classification-driven tool: instruments global accesses only where
    /// the static analysis did not prove them safe, and ships one channel
    /// record per dispatched memory callback (so channel `sent` mirrors the
    /// dispatch accounting exactly).
    struct Pruning {
        chan: channel::HostChannel<usize>,
    }

    impl Pruning {
        fn new() -> Self {
            let capacity = std::num::NonZeroUsize::new(1024).unwrap();
            Pruning {
                chan: channel::HostChannel::with_capacity(
                    capacity,
                    1,
                    0,
                    CostCategory::Instrumentation,
                ),
            }
        }
    }

    impl Tool for Pruning {
        fn instrument(&mut self, kernel: &Kernel) -> Vec<bool> {
            let cls = static_an::analyze(kernel);
            let mut map = Probe::default().instrument(kernel);
            for (pc, m) in map.iter_mut().enumerate() {
                *m &= !cls.class_at(pc).is_safe();
            }
            map
        }
        fn body_sensitive(&self) -> bool {
            true
        }
        fn on_mem(&mut self, a: &MemAccess<'_>, c: &mut Clock) {
            self.chan.send(a.pc, c);
        }
    }

    /// The pcs `tool` instruments in `kernel`.
    fn points(tool: &mut impl Tool, kernel: &Kernel) -> Vec<usize> {
        let map = tool.instrument(kernel);
        (0..map.len()).filter(|&pc| map[pc]).collect()
    }

    fn launch_pruned(kernel: &Kernel, grid: u32, block: u32) -> (InstrStats, u64) {
        let mut gpu = Gpu::new(GpuConfig::default());
        let b0 = gpu.alloc(4096).unwrap();
        let b1 = gpu.alloc(4096).unwrap();
        let mut inst = Instrumented::new(Pruning::new());
        gpu.launch(kernel, grid, block, &[b0, b1], &mut inst)
            .unwrap();
        let sent = inst.tool().chan.stats().sent;
        (inst.instr_stats(), sent)
    }

    #[test]
    fn classified_predicate_empty_kernel() {
        // No memory instructions at all: nothing to dispatch, nothing to skip.
        let mut b = KernelBuilder::new("empty");
        let tid = b.special(Special::Tid);
        let _ = b.add(tid, 1u32);
        let k = b.build();
        let (stats, sent) = launch_pruned(&k, 1, 32);
        assert_eq!(stats.dispatched_mem, 0);
        assert_eq!(stats.skipped_mem, 0);
        assert_eq!(sent, 0);
        assert!(points(&mut Pruning::new(), &k).is_empty());
    }

    #[test]
    fn classified_predicate_all_safe_kernel() {
        // Read-only kernel: every dynamic access is skipped, the channel
        // ships nothing, and sync dispatches survive the pruning.
        let mut b = KernelBuilder::new("ro");
        let base = b.param(0);
        let tid = b.special(Special::Tid);
        let off = b.mul(tid, 4u32);
        let a = b.add(base, off);
        let _ = b.ld(a, 0);
        let _ = b.ld(a, 1);
        b.syncthreads();
        let k = b.build();
        let (stats, sent) = launch_pruned(&k, 1, 32);
        assert_eq!(stats.dispatched_mem, 0);
        assert!(stats.skipped_mem > 0);
        assert_eq!(sent, 0);
        assert!(stats.dispatched_sync > 0, "sync callbacks are not pruned");
        let cls = static_an::analyze(&k);
        let pts = points(&mut Pruning::new(), &k);
        // Only the barrier remains.
        assert_eq!(pts.len(), 1);
        assert!(k.code[pts[0]].is_sync());
        assert_eq!(
            points(&mut Probe::default(), &k).len(),
            pts.len() + cls.safe_points
        );
    }

    #[test]
    fn classified_predicate_all_unknown_kernel() {
        // Plain read-modify-write: nothing provable, everything dispatches
        // — and channel `sent` equals the dispatched count exactly.
        let k = test_kernel();
        let (stats, sent) = launch_pruned(&k, 1, 32);
        assert_eq!(stats.skipped_mem, 0);
        assert!(stats.dispatched_mem >= 2);
        assert_eq!(sent, stats.dispatched_mem);
        let cls = static_an::analyze(&k);
        assert_eq!(cls.safe_points, 0);
        assert_eq!(
            points(&mut Pruning::new(), &k),
            points(&mut Probe::default(), &k)
        );
    }

    #[test]
    fn classified_predicate_mixed_kernel() {
        // A read-only load next to plain stores: one write defeats rule A,
        // a non-atomic write defeats rule B, and the rules are
        // kernel-global, so no point is dropped — not even the load.
        let mut b = KernelBuilder::new("mixed");
        let buf = b.param(0);
        let tid = b.special(Special::Tid);
        b.st(buf, 0, tid);
        let idx = b.ld(buf, 1);
        let off = b.mul(idx, 4u32);
        let a = b.add(buf, off);
        b.st(a, 2, tid);
        let k = b.build();
        let cls = static_an::analyze(&k);
        assert_eq!(cls.unknown_points, 3);
        assert_eq!(cls.safe_points, 0);
        assert_eq!(
            points(&mut Pruning::new(), &k),
            points(&mut Probe::default(), &k)
        );
        let (stats, sent) = launch_pruned(&k, 1, 2);
        assert_eq!(stats.skipped_mem, 0);
        assert_eq!(sent, stats.dispatched_mem);
    }

    #[test]
    fn channel_sent_reflects_pruned_points_exactly() {
        // Two-kernel session: an atomic-protected histogram kernel (all
        // accesses pruned) then an unknown kernel (all accesses shipped).
        // The channel sees only the second kernel's records.
        let mut safe = KernelBuilder::new("hist");
        let input = safe.param(0);
        let output = safe.param(1);
        let g = safe.special(Special::GlobalTid);
        let off = safe.mul(g, 4u32);
        let ia = safe.add(input, off);
        let v = safe.ld(ia, 0);
        let _ = safe.atomic_add(Scope::Device, output, 0, v);
        let safe = safe.build();
        let unknown = test_kernel();

        let mut gpu = Gpu::new(GpuConfig::default());
        let b0 = gpu.alloc(4096).unwrap();
        let b1 = gpu.alloc(4096).unwrap();
        let mut inst = Instrumented::new(Pruning::new());
        gpu.launch(&safe, 1, 32, &[b0, b1], &mut inst).unwrap();
        let after_safe = inst.instr_stats();
        assert_eq!(after_safe.dispatched_mem, 0);
        // Callbacks are per warp split: one load split + one atomic split.
        assert_eq!(after_safe.skipped_mem, 2);
        assert_eq!(inst.tool().chan.stats().sent, 0);

        gpu.launch(&unknown, 1, 32, &[b0, b1], &mut inst).unwrap();
        let total = inst.instr_stats();
        assert_eq!(total.skipped_mem, 2, "unknown kernel skips nothing");
        assert!(total.dispatched_mem > 0);
        assert_eq!(inst.tool().chan.stats().sent, total.dispatched_mem);
    }

    #[test]
    fn same_name_different_body_gets_its_own_bitmap() {
        // The instrumented-function cache is name-keyed; a body-sensitive
        // tool must not let an unknown twin reuse the safe twin's pruned
        // bitmap.
        let mut a = KernelBuilder::new("twin");
        let pa = a.param(0);
        let ta = a.special(Special::Tid);
        let oa = a.mul(ta, 4u32);
        let aa = a.add(pa, oa);
        let _ = a.ld(aa, 0);
        let a = a.build(); // read-only: fully pruned
        let mut b = KernelBuilder::new("twin");
        let pb = b.param(0);
        let tb = b.special(Special::Tid);
        b.st(pb, 0, tb);
        let b = b.build(); // plain store: must stay instrumented
        assert_eq!(*a.name, *b.name);

        let mut gpu = Gpu::new(GpuConfig::default());
        let buf = gpu.alloc(4096).unwrap();
        let mut inst = Instrumented::new(Pruning::new());
        gpu.launch(&a, 1, 32, &[buf], &mut inst).unwrap();
        assert_eq!(inst.instr_stats().dispatched_mem, 0);
        gpu.launch(&b, 1, 32, &[buf], &mut inst).unwrap();
        let stats = inst.instr_stats();
        assert_eq!(stats.analyzed_kernels, 2, "two bodies, two analyses");
        assert!(
            stats.dispatched_mem > 0,
            "the unknown twin's store must dispatch"
        );
    }
}
