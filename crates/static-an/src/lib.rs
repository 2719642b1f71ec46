//! # static-an: static pre-analysis that prunes instrumentation
//!
//! The classic hybrid-detector speedup: prove most accesses race-free
//! *before* launch and instrument only the rest ("Provable GPU Data-Races
//! in Static Race Detection" shows many verdicts are decidable from kernel
//! structure alone; GPUArmor applies the same compile-time filtering shape
//! to memory-safety checks). This crate classifies every potential
//! instrumentation point of a [`Kernel`] as
//!
//! - **provably-safe** — the dynamic detector can never (correctly) report
//!   a race at this point, so the callback may be skipped entirely;
//! - **provably-racy** — a race is certain for some launch geometries and
//!   can be reported at launch time without running the detector;
//! - **unknown** — instrument exactly as today.
//!
//! ## The classification lattice (v1 rules, all kernel-global)
//!
//! 1. **Read-only kernel** — no global store, atomic, or volatile store
//!    anywhere: every global load is safe. Immune to parameter aliasing.
//! 2. **Atomic-protected kernel** — every global *write* is a device-scope
//!    atomic: all global points are safe. Atomic/atomic and load/atomic
//!    pairs at device scope are non-racy for both the detector (P6/P6a)
//!    and the schedule-enumeration oracle, regardless of aliasing.
//! 3. **Thread-private kernel** — every global access has the linear form
//!    `param_p + s·globalTid + off` with one common stride `s ≥ 4` and,
//!    per parameter region, an offset window `max_off − min_off ≤ s − 4`:
//!    each global thread owns a disjoint word window of each region. This
//!    verdict is *conditional*: it additionally requires the per-launch
//!    check [`AccessClassification::conditions_hold`] (regions pairwise
//!    disjoint for the concrete parameter values and thread count, and no
//!    2³² wrap-around), re-validated at every launch by the detector.
//!
//! A barrier-phase ("synchronized-by-structure") rule was considered and
//! rejected as unsound: `__syncthreads` orders only within a block, and the
//! launch geometry — hence the set of cross-block colliding thread pairs —
//! is unknown statically.
//!
//! Provably-racy points are conservative by design: in a *straight-line*
//! kernel (no branches at all) every thread executes every pc in the same
//! barrier phase, so a plain store to a thread-uniform address races with
//! its own instances as soon as a launch has ≥ 2 threads, and a
//! block-scoped atomic on a uniform address races cross-block as soon as a
//! launch has ≥ 2 blocks. Racy points stay instrumented (the dynamic
//! report is still wanted); the static verdict is *additional* and gated
//! on the actual launch geometry by the consumer.
//!
//! The rules are intentionally all-or-nothing per kernel: either every
//! global point is safe or none is. This makes pruning trivially
//! behavior-preserving — a pruned access can never perturb metadata that a
//! still-instrumented access would later read.

#![forbid(unsafe_code)]

pub mod absint;

use absint::AbsVal;
use gpu_sim::ir::{AtomOp, Instr, Scope};
use gpu_sim::kernel::Kernel;
use std::sync::Arc;

/// Why a point is provably safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeReason {
    /// The kernel performs no global writes at all.
    ReadOnlyKernel,
    /// Every global write in the kernel is a device-scope atomic.
    AtomicProtected,
    /// All accesses are `param + s·globalTid + off` with disjoint per-thread
    /// word windows (conditional on the launch-time region check).
    ThreadPrivate,
}

/// Why a point is provably racy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RacyReason {
    /// Straight-line plain store to a thread-uniform address: every thread
    /// of the launch writes the same word in the same barrier phase. Races
    /// whenever the launch has ≥ 2 threads (vs the ITS ground truth; the
    /// dynamic detector's P4 check deliberately ignores the same-warp
    /// converged subcase).
    UniformStore,
    /// Straight-line block-scoped atomic on a thread-uniform address:
    /// insufficient scope across blocks (the paper's AS class). Races
    /// whenever the launch has ≥ 2 blocks.
    BlockScopedAtomic,
}

/// Verdict for one static instrumentation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    Safe(SafeReason),
    Racy(RacyReason),
    Unknown,
}

impl PointClass {
    /// Whether the point may be skipped by the instrumentation layer.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        matches!(self, PointClass::Safe(_))
    }
}

/// A provably-racy site, with enough context to report it at launch time.
#[derive(Debug, Clone)]
pub struct RacySite {
    pub pc: usize,
    pub reason: RacyReason,
    /// Source line attached to the instruction, if any.
    pub line: Option<String>,
}

/// One `param + s·globalTid + [min_off, max_off]` region of a
/// thread-private kernel; the launch-time disjointness check evaluates
/// these against the concrete parameter values and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionExtent {
    /// Kernel parameter index holding the region base address.
    pub param: u8,
    /// Common byte stride per global thread (≥ 4).
    pub stride: i64,
    /// Smallest byte offset (instruction offsets folded in) in the region.
    pub min_off: i64,
    /// Largest byte offset in the region.
    pub max_off: i64,
}

/// Per-kernel classification of every static instrumentation point.
#[derive(Debug)]
pub struct AccessClassification {
    name: Arc<str>,
    /// Per-pc verdict; `Unknown` for non-memory pcs.
    classes: Vec<PointClass>,
    /// Static global-memory instrumentation points.
    pub mem_points: usize,
    /// Points classified `Safe`.
    pub safe_points: usize,
    /// Points classified `Racy`.
    pub racy_points: usize,
    /// Points left `Unknown` (instrumented as today).
    pub unknown_points: usize,
    /// Launch-time conditions for `Safe(ThreadPrivate)` verdicts; empty for
    /// unconditional classifications.
    pub conditions: Vec<RegionExtent>,
    /// Provably-racy sites, for launch-time reporting.
    pub racy_sites: Vec<RacySite>,
}

impl AccessClassification {
    /// Interned name of the classified kernel.
    #[must_use]
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

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

    /// Fraction of global-memory points that are provably safe.
    #[must_use]
    pub fn prune_rate(&self) -> f64 {
        if self.mem_points == 0 {
            0.0
        } else {
            self.safe_points as f64 / self.mem_points as f64
        }
    }

    /// Whether the safe verdicts depend on the launch-time region check.
    #[must_use]
    pub fn conditional(&self) -> bool {
        !self.conditions.is_empty()
    }

    /// Launch-time validation of a conditional (`ThreadPrivate`)
    /// classification: with the concrete parameter values and thread count,
    /// every region must stay inside `[0, 2³²)` without wrap-around and all
    /// regions must be pairwise disjoint. Unconditional classifications
    /// trivially hold. Returns `false` (conservative: do not prune) when a
    /// referenced parameter is missing from the launch.
    #[must_use]
    pub fn conditions_hold(&self, params: &[u32], total_threads: u32) -> bool {
        if self.conditions.is_empty() {
            return true;
        }
        let n = i64::from(total_threads.max(1));
        let mut spans: Vec<(i64, i64)> = Vec::with_capacity(self.conditions.len());
        for r in &self.conditions {
            let Some(&base) = params.get(r.param as usize) else {
                return false;
            };
            let lo = i64::from(base) + r.min_off;
            let hi = i64::from(base) + r.stride * (n - 1) + r.max_off + 4;
            if lo < 0 || hi > (1i64 << 32) {
                return false;
            }
            spans.push((lo, hi));
        }
        spans.sort_unstable();
        spans.windows(2).all(|w| w[0].1 <= w[1].0)
    }
}

/// The shape of one global-memory point, as the classifier sees it.
#[derive(Debug, Clone, Copy)]
struct MemPoint {
    pc: usize,
    write: bool,
    /// Plain (non-volatile) store.
    plain_store: bool,
    /// Volatile store (treated as a write that is *not* atomic-protected).
    volatile_store: bool,
    /// Device-scope atomic.
    device_atomic: bool,
    /// Block-scope atomic.
    block_atomic: bool,
    addr: Option<AbsVal>,
}

/// Classifies every instrumentation point of `kernel`.
#[must_use]
pub fn analyze(kernel: &Kernel) -> AccessClassification {
    let df = absint::run(kernel);
    let code = &kernel.code;
    let mut points: Vec<MemPoint> = Vec::new();
    for (pc, instr) in code.iter().enumerate() {
        if !instr.is_global_access() {
            continue;
        }
        let mut p = MemPoint {
            pc,
            write: false,
            plain_store: false,
            volatile_store: false,
            device_atomic: false,
            block_atomic: false,
            addr: df.addr_at[pc],
        };
        match *instr {
            Instr::Ld { .. } => {}
            Instr::St { volatile, .. } => {
                p.write = true;
                p.plain_store = !volatile;
                p.volatile_store = volatile;
            }
            Instr::Atom { scope, .. } => {
                p.write = true;
                p.device_atomic = scope == Scope::Device;
                p.block_atomic = scope == Scope::Block;
            }
            _ => unreachable!("is_global_access covers Ld/St/Atom only"),
        }
        points.push(p);
    }

    let mut classes = vec![PointClass::Unknown; code.len()];
    let mut conditions = Vec::new();
    let mut racy_sites = Vec::new();

    let verdict: Option<SafeReason> = if points.iter().all(|p| !p.write) {
        Some(SafeReason::ReadOnlyKernel)
    } else if points
        .iter()
        .all(|p| !p.write || (p.device_atomic && !p.volatile_store))
    {
        Some(SafeReason::AtomicProtected)
    } else if let Some(regions) = thread_private_regions(&points) {
        conditions = regions;
        Some(SafeReason::ThreadPrivate)
    } else {
        None
    };

    if let Some(reason) = verdict {
        for p in &points {
            classes[p.pc] = PointClass::Safe(reason);
        }
    } else {
        mark_racy(kernel, &points, &mut classes, &mut racy_sites);
    }

    let mem_points = points.len();
    let safe_points = points.iter().filter(|p| classes[p.pc].is_safe()).count();
    let racy_points = points
        .iter()
        .filter(|p| matches!(classes[p.pc], PointClass::Racy(_)))
        .count();
    // The v1 rules are kernel-global: a kernel is either entirely safe or
    // not safe at all. Downstream pruning soundness (no metadata
    // perturbation between pruned and instrumented accesses) leans on this.
    debug_assert!(safe_points == 0 || safe_points == mem_points);

    AccessClassification {
        name: kernel.name.clone(),
        classes,
        mem_points,
        safe_points,
        racy_points,
        unknown_points: mem_points - safe_points - racy_points,
        conditions,
        racy_sites,
    }
}

/// Checks the thread-private rule: every point (there is at least one
/// write) must have the form `param_p + s·globalTid + off` with a single
/// common stride `s ≥ 4`, and each parameter region's offsets must fit a
/// `max_off − min_off ≤ s − 4` window so each global thread owns a disjoint
/// word window. Returns the per-region extents for the launch-time check.
fn thread_private_regions(points: &[MemPoint]) -> Option<Vec<RegionExtent>> {
    if points.is_empty() {
        return None;
    }
    let mut stride: Option<i64> = None;
    // Param index → (min_off, max_off); params are capped at 16 per launch.
    let mut regions: Vec<(u8, i64, i64)> = Vec::new();
    for p in points {
        let Some(AbsVal::Lin(l)) = p.addr else {
            return None;
        };
        let param = l.param?;
        let s = l.gtid_stride()?;
        if s < 4 {
            return None;
        }
        if *stride.get_or_insert(s) != s {
            return None;
        }
        match regions.iter_mut().find(|(q, _, _)| *q == param) {
            Some((_, lo, hi)) => {
                *lo = (*lo).min(l.off);
                *hi = (*hi).max(l.off);
            }
            None => regions.push((param, l.off, l.off)),
        }
    }
    let s = stride?;
    if regions.iter().any(|&(_, lo, hi)| hi - lo > s - 4) {
        return None;
    }
    Some(
        regions
            .into_iter()
            .map(|(param, min_off, max_off)| RegionExtent {
                param,
                stride: s,
                min_off,
                max_off,
            })
            .collect(),
    )
}

/// Marks provably-racy points in straight-line kernels (no branches):
/// every launched thread executes every pc before the first `Exit` in the
/// same barrier phase, so conflicting same-pc instances are unordered.
fn mark_racy(
    kernel: &Kernel,
    points: &[MemPoint],
    classes: &mut [PointClass],
    racy_sites: &mut Vec<RacySite>,
) {
    let straight = kernel
        .code
        .iter()
        .all(|i| !matches!(i, Instr::Bra { .. } | Instr::BraIf { .. } | Instr::BraIfNot { .. }));
    if !straight {
        return;
    }
    let first_exit = kernel
        .code
        .iter()
        .position(|i| matches!(i, Instr::Exit))
        .unwrap_or(kernel.code.len());
    for p in points {
        if p.pc >= first_exit {
            continue;
        }
        let Some(AbsVal::Lin(l)) = p.addr else {
            continue;
        };
        if !l.is_thread_uniform() {
            continue;
        }
        let reason = if p.plain_store {
            RacyReason::UniformStore
        } else if p.block_atomic {
            // CAS/Exch at block scope feed lock inference rather than plain
            // data updates; only report the unambiguous data-update ops.
            match kernel.code[p.pc] {
                Instr::Atom { op, .. } if !matches!(op, AtomOp::Cas | AtomOp::Exch) => {
                    RacyReason::BlockScopedAtomic
                }
                _ => continue,
            }
        } else {
            continue;
        };
        classes[p.pc] = PointClass::Racy(reason);
        racy_sites.push(RacySite {
            pc: p.pc,
            reason,
            line: kernel.line(p.pc).map(str::to_string),
        });
    }
}

/// Statistics of a [`ClassificationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups resolved from the cache.
    pub hits: u64,
    /// Lookups that ran a fresh analysis.
    pub misses: u64,
    /// Lookups where a same-named entry existed but its body differed, so a
    /// separate entry was created (the string-equality fallback of interned
    /// names must never alias distinct kernel bodies).
    pub body_conflicts: u64,
}

#[derive(Debug)]
struct CacheEntry {
    name: Arc<str>,
    code: Vec<Instr>,
    cls: Arc<AccessClassification>,
}

/// Per-kernel classification cache keyed by interned kernel name.
///
/// The fast path is a pointer compare on the interned `Arc<str>` (the
/// common case: repeated launches of the same kernel object). The
/// string-equality fallback additionally compares the kernel *body*:
/// unlike NVBit's instrumented-function cache, a classification drives
/// *pruning*, so two distinct kernels that merely share a name must never
/// share a verdict.
#[derive(Debug, Default)]
pub struct ClassificationCache {
    entries: Vec<CacheEntry>,
    cursor: usize,
    stats: CacheStats,
}

impl ClassificationCache {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the classification for `kernel`, analyzing on first sight.
    pub fn classify(&mut self, kernel: &Kernel) -> Arc<AccessClassification> {
        if let Some(e) = self.entries.get(self.cursor) {
            if Arc::ptr_eq(&e.name, &kernel.name) {
                self.stats.hits += 1;
                return Arc::clone(&e.cls);
            }
        }
        let mut name_seen = false;
        if let Some(i) = self.entries.iter().position(|e| {
            Arc::ptr_eq(&e.name, &kernel.name) || {
                let same_name = *e.name == *kernel.name;
                name_seen |= same_name;
                same_name && e.code == kernel.code
            }
        }) {
            self.cursor = i;
            self.stats.hits += 1;
            return Arc::clone(&self.entries[i].cls);
        }
        if name_seen {
            self.stats.body_conflicts += 1;
        }
        self.stats.misses += 1;
        let cls = Arc::new(analyze(kernel));
        self.entries.push(CacheEntry {
            name: kernel.name.clone(),
            code: kernel.code.clone(),
            cls: Arc::clone(&cls),
        });
        self.cursor = self.entries.len() - 1;
        Arc::clone(&self.entries[self.cursor].cls)
    }

    /// Cache statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached classifications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::asm::KernelBuilder;
    use gpu_sim::ir::Special;

    fn stream_kernel(name: &str) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let input = b.param(0);
        let output = b.param(1);
        let g = b.special(Special::GlobalTid);
        let off = b.mul(g, 4u32);
        let ia = b.add(input, off);
        let v = b.ld(ia, 0);
        let v3 = b.mul(v, 3u32);
        let oa = b.add(output, off);
        b.st(oa, 0, v3);
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
        assert!(!c.conditional());
        assert!(matches!(
            c.class_at(k.code.iter().position(Instr::is_global_access).unwrap()),
            PointClass::Safe(SafeReason::ReadOnlyKernel)
        ));
    }

    #[test]
    fn device_atomic_writes_protect_the_whole_kernel() {
        let mut b = KernelBuilder::new("hist");
        let input = b.param(0);
        let out = b.param(1);
        let g = b.special(Special::GlobalTid);
        let off = b.mul(g, 4u32);
        let a = b.add(input, off);
        let v = b.ld(a, 0);
        let _ = b.atomic_add(Scope::Device, out, 0, v);
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.mem_points, 2);
        assert_eq!(c.safe_points, 2);
        assert!(!c.conditional());
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
    fn stream_kernel_is_conditionally_thread_private() {
        let k = stream_kernel("stream");
        let c = analyze(&k);
        assert_eq!(c.mem_points, 2);
        assert_eq!(c.safe_points, 2);
        assert!(c.conditional());
        assert_eq!(c.conditions.len(), 2);
        // Disjoint 64-word buffers, 64 threads: holds.
        assert!(c.conditions_hold(&[0, 256], 64));
        // Overlapping buffers: must refuse to prune.
        assert!(!c.conditions_hold(&[0, 128], 64));
        // Wrap-around at the top of the address space: refuse.
        assert!(!c.conditions_hold(&[u32::MAX - 64, 0], 64));
        // Missing parameter: refuse.
        assert!(!c.conditions_hold(&[0], 64));
    }

    #[test]
    fn offset_window_within_stride_is_private_but_wider_is_not() {
        // Two words per thread at stride 8: offsets 0 and 4 fit the window.
        let mk = |second_word: i32| {
            let mut b = KernelBuilder::new("pair");
            let buf = b.param(0);
            let g = b.special(Special::GlobalTid);
            let off = b.mul(g, 8u32);
            let a = b.add(buf, off);
            let v = b.ld(a, 0);
            b.st(a, second_word, v);
            b.build()
        };
        assert_eq!(analyze(&mk(1)).safe_points, 2);
        // Offset 8 bytes = the neighbour thread's first word: unsafe.
        assert_eq!(analyze(&mk(2)).safe_points, 0);
    }

    #[test]
    fn mixed_strides_are_not_thread_private() {
        let mut b = KernelBuilder::new("k");
        let buf = b.param(0);
        let g = b.special(Special::GlobalTid);
        let o4 = b.mul(g, 4u32);
        let o8 = b.mul(g, 8u32);
        let a4 = b.add(buf, o4);
        let a8 = b.add(buf, o8);
        let v = b.ld(a8, 0);
        b.st(a4, 0, v);
        let k = b.build();
        assert_eq!(analyze(&k).safe_points, 0);
    }

    #[test]
    fn tid_only_stride_is_not_private_across_blocks() {
        // buf[tid]: threads of different blocks share words.
        let mut b = KernelBuilder::new("k");
        let buf = b.param(0);
        let tid = b.special(Special::Tid);
        let off = b.mul(tid, 4u32);
        let a = b.add(buf, off);
        b.st(a, 0, tid);
        let k = b.build();
        assert_eq!(analyze(&k).safe_points, 0);
    }

    #[test]
    fn straight_line_uniform_store_is_provably_racy() {
        let mut b = KernelBuilder::new("k");
        let buf = b.param(0);
        let tid = b.special(Special::Tid);
        b.st(buf, 3, tid);
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.racy_points, 1);
        assert_eq!(c.racy_sites.len(), 1);
        assert_eq!(c.racy_sites[0].reason, RacyReason::UniformStore);
        assert!(matches!(
            c.class_at(c.racy_sites[0].pc),
            PointClass::Racy(RacyReason::UniformStore)
        ));
    }

    #[test]
    fn straight_line_block_atomic_is_provably_racy() {
        let mut b = KernelBuilder::new("k");
        let ctr = b.param(0);
        let one = b.imm(1);
        let _ = b.atomic_add(Scope::Block, ctr, 0, one);
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.racy_points, 1);
        assert_eq!(c.racy_sites[0].reason, RacyReason::BlockScopedAtomic);
    }

    #[test]
    fn guarded_store_is_not_provably_racy() {
        // Same store, but behind a tid guard: the branch makes the kernel
        // non-straight-line and the conservative racy rule stands down.
        let mut b = KernelBuilder::new("k");
        let buf = b.param(0);
        let tid = b.special(Special::Tid);
        let is0 = b.eq(tid, 0u32);
        let fin = b.fwd_label();
        b.bra_ifnot(is0, fin);
        b.st(buf, 3, tid);
        b.bind(fin);
        let k = b.build();
        let c = analyze(&k);
        assert_eq!(c.racy_points, 0);
        assert_eq!(c.unknown_points, 1);
    }

    #[test]
    fn volatile_uniform_store_is_not_reported_racy() {
        // The detector models volatile stores as relaxed device atomics;
        // the racy rule stays detector-aligned and skips them.
        let mut b = KernelBuilder::new("k");
        let buf = b.param(0);
        let tid = b.special(Special::Tid);
        b.st_volatile(buf, 0, tid);
        let k = b.build();
        assert_eq!(analyze(&k).racy_points, 0);
    }

    #[test]
    fn cache_hits_by_pointer_and_by_string() {
        let mut cache = ClassificationCache::new();
        let k = stream_kernel("s");
        let c1 = cache.classify(&k);
        let c2 = cache.classify(&k);
        assert!(Arc::ptr_eq(&c1, &c2));
        // Same name, same body, distinct Arc allocation: string fallback.
        let k2 = stream_kernel("s");
        assert!(!Arc::ptr_eq(&k.name, &k2.name));
        let c3 = cache.classify(&k2);
        assert!(Arc::ptr_eq(&c1, &c3));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().body_conflicts, 0);
    }

    #[test]
    fn equal_names_with_different_bodies_do_not_share_a_classification() {
        let mut cache = ClassificationCache::new();
        let safe = stream_kernel("twin");
        let mut b = KernelBuilder::new("twin");
        let buf = b.param(0);
        let tid = b.special(Special::Tid);
        b.st(buf, 0, tid); // uniform store: provably racy, nothing safe
        let racy = b.build();
        assert!(!Arc::ptr_eq(&safe.name, &racy.name));
        assert_eq!(*safe.name, *racy.name);

        let cs = cache.classify(&safe);
        let cr = cache.classify(&racy);
        assert!(!Arc::ptr_eq(&cs, &cr));
        assert_eq!(cs.safe_points, cs.mem_points);
        assert_eq!(cr.safe_points, 0);
        assert_eq!(cr.racy_points, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().body_conflicts, 1);
        // Each body keeps resolving to its own entry afterwards.
        assert!(Arc::ptr_eq(&cache.classify(&safe), &cs));
        assert!(Arc::ptr_eq(&cache.classify(&racy), &cr));
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
        assert_eq!(c.prune_rate(), 0.0);
    }
    /// `Reg` wraps a `u8`, so a raw instruction stream can name r255 —
    /// one past what `KernelBuilder` allocates. Both the machine's
    /// register file and the abstract state are sized by the kernel, so
    /// the case runs instead of indexing out of bounds.
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
        assert!(c.all_mem_safe(), "own-cell store is thread-private");
    }
}
