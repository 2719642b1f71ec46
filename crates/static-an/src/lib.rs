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
use std::sync::Arc;

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

    /// `out[0] += in[g]` at device scope: rule B proves both points safe.
    fn hist_kernel(name: &str) -> Kernel {
        let mut b = KernelBuilder::new(name);
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
        let k = hist_kernel("hist");
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
    fn cache_hits_by_pointer_and_by_string() {
        let mut cache = ClassificationCache::new();
        let k = hist_kernel("s");
        let c1 = cache.classify(&k);
        let c2 = cache.classify(&k);
        assert!(Arc::ptr_eq(&c1, &c2));
        // Same name, same body, distinct Arc allocation: string fallback.
        let k2 = hist_kernel("s");
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
        let safe = hist_kernel("twin");
        let mut b = KernelBuilder::new("twin");
        let buf = b.param(0);
        let tid = b.special(Special::Tid);
        b.st(buf, 0, tid); // plain store: neither rule applies, nothing safe
        let unknown = b.build();
        assert!(!Arc::ptr_eq(&safe.name, &unknown.name));
        assert_eq!(*safe.name, *unknown.name);

        let cs = cache.classify(&safe);
        let cu = cache.classify(&unknown);
        assert!(!Arc::ptr_eq(&cs, &cu));
        assert_eq!(cs.safe_points, cs.mem_points);
        assert_eq!(cu.safe_points, 0);
        assert_eq!(cu.unknown_points, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().body_conflicts, 1);
        // Each body keeps resolving to its own entry afterwards.
        assert!(Arc::ptr_eq(&cache.classify(&safe), &cs));
        assert!(Arc::ptr_eq(&cache.classify(&unknown), &cu));
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
