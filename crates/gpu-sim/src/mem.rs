//! The simulated GPU memory system with *scoped visibility*.
//!
//! Races induced by insufficient scope are only observable if narrower-scope
//! operations really have narrower visibility, so the simulator models the
//! non-coherent L1-per-SM / shared-L2 hierarchy of real NVIDIA GPUs:
//!
//! - plain stores land in the issuing SM's L1 (dirty line) and are visible
//!   to every thread on that SM (all threads of a block share an SM);
//! - plain loads hit the local L1 if a line is present (dirty *or* clean),
//!   otherwise fill from L2 — so an SM can keep reading a stale clean copy
//!   even after L2 moved on, exactly the stale-read failure mode of a
//!   missing device fence;
//! - a **device-scope fence** writes the SM's dirty lines back to L2 and
//!   drops all its lines (subsequent loads refill from L2);
//! - a **block-scope fence** orders accesses within the SM only — it is a
//!   visibility no-op here because intra-SM visibility is immediate, which
//!   is also why it is cheap on hardware (the 21× gap of §1);
//! - a **block-scope atomic** performs its read-modify-write on the SM-local
//!   view (L1), so two blocks on different SMs doing block-scope atomics to
//!   the same word *lose updates* — the Figure 1 bug;
//! - a **device-scope atomic** operates directly on L2 after writing back /
//!   dropping any local line for that word;
//! - `volatile` accesses bypass L1 in both directions (CUDA's escape hatch
//!   used by spin-wait flags like Figure 10's `arrived`).
//!
//! Addresses are byte addresses; all traffic is word (4-byte) sized and
//! aligned, matching the 4-byte granularity of iGUARD's memory metadata.
//!
//! # Weak visibility (litmus mode)
//!
//! The hierarchy above is *deterministic*: a load observes exactly one
//! value given the schedule. Real scoped GPU memory is weaker — which of
//! several in-flight writes a load observes is itself a degree of freedom
//! (store buffering, non-multi-copy-atomic propagation). With
//! [`GlobalMem::enable_weak`] the memory additionally tracks a global
//! version per write and a per-SM per-word *read floor*, and
//! [`GlobalMem::load_weak`] exposes every value the load is allowed to
//! observe as an explicit candidate list:
//!
//! - candidate 0 is always the legacy value (local line, else L2), so a
//!   chooser that always picks 0 reproduces the strong model exactly;
//! - the L2 copy and other SMs' not-yet-written-back dirty lines are
//!   additional candidates (early propagation — the non-multi-copy-atomic
//!   behaviour IRIW probes);
//! - a candidate is only offered if its version is ≥ this SM's read floor
//!   for the word, and a chosen read raises the floor — per-location
//!   coherence: a thread never observes a word going *backwards*;
//! - a device fence writes back a dirty line only if it is not older than
//!   the L2 copy (write serialization at L2).
//!
//! The scheduler's `choose_visibility` picks among the candidates, which is
//! what lets the oracle enumerate visibility orders alongside schedules.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::SimError;
use crate::ir::{AtomOp, Scope};
use crate::paged::Paged;

/// Words per L1 page (1.5 KB of lines). An SM caches what its blocks
/// touch, `num_sms` blocks apart, so its pages are mostly part-used and
/// want to be small; each also costs 8 bytes of page table in every L1
/// whose highest cached word lies beyond it, so not too small. Measured on
/// the 1 Mi-thread stencil (native peak heap): 64 words 131.5 MB, 128
/// 134.4, 256 153.8, with no difference in time.
const L1_PAGE: usize = 128;

/// Words per L2 page (16 KB). Buffers are written in long dense runs, so
/// L2 pages fill, and the size is not what the time depends on: 1 Ki, 4 Ki
/// and 16 Ki words read the same `pass_wall_s` on `service_clean`,
/// `ladder_stencil` and `zoo_sim` and the same 128 Ki-thread stencil
/// microbenchmark, inside the host's noise (EXPERIMENTS.md, "Lazily paged
/// L2"). What moves is what a small job holds: a service job seeds a few
/// hundred words and maps a page or two, 4.03 MB of peak heap a wave at
/// 4 Ki against 4.07 at 16 Ki, while 1 Ki only quadruples the page table.
const L2_PAGE: usize = 4096;

/// One cached word in an SM's L1; present iff `epoch` is the L1's live
/// epoch, which the default 0 never is.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    epoch: u32,
    value: u32,
    dirty: bool,
}

/// Weak-mode bookkeeping of one word on one SM. Neither is epoch-gated:
/// `ver` is only read through valid lines, `floor` persists across fences.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    /// Global version of the write the line holds.
    ver: u32,
    /// Minimum version a load on this SM may still observe.
    floor: u32,
}

/// One SM's L1: word-indexed pages instead of a hash map, so the
/// per-access hot path is a page lookup and an epoch check with no
/// hashing. Presence is an epoch match — a device fence "drops all lines"
/// by bumping the epoch (O(1)) — and dirty lines are additionally tracked
/// in a write-back list so a fence only visits words this SM actually
/// wrote. Only pages the SM has cached a word of exist (12 bytes a word),
/// plus 8 bytes of page table per page of address range below the highest
/// word cached.
#[derive(Debug)]
struct SmL1 {
    /// Starts at 1 and a wrap resets it to 1.
    epoch: u32,
    lines: Paged<Line, L1_PAGE>,
    /// Words that transitioned to dirty since the last device fence (may
    /// hold duplicates/stale entries; validity is re-checked at flush).
    dirty_list: Vec<u32>,
    /// Written in weak mode only (no page otherwise).
    seen: Paged<Seen, L1_PAGE>,
}

impl SmL1 {
    fn new() -> Self {
        SmL1 {
            epoch: 1,
            lines: Paged::default(),
            dirty_list: Vec::new(),
            seen: Paged::default(),
        }
    }

    #[inline]
    fn get(&self, w: usize) -> Option<Line> {
        let line = self.lines.read(w);
        (line.epoch == self.epoch).then_some(line)
    }

    #[inline]
    fn insert(&mut self, w: usize, value: u32, dirty: bool) {
        let line = self.lines.entry(w);
        if dirty && !(line.epoch == self.epoch && line.dirty) {
            self.dirty_list.push(w as u32);
        }
        *line = Line {
            epoch: self.epoch,
            value,
            dirty,
        };
    }

    #[inline]
    fn remove(&mut self, w: usize) {
        if let Some(line) = self.lines.get_mut(w) {
            line.epoch = self.epoch.wrapping_sub(1);
        }
    }

    /// Raises the read floor of `w` to at least `ver`.
    fn raise_floor(&mut self, w: usize, ver: u32) {
        let seen = self.seen.entry(w);
        seen.floor = seen.floor.max(ver);
    }

    /// Writes back every dirty line and drops all lines. In weak mode a
    /// dirty line only lands in L2 if it is not older than the L2 copy
    /// (write serialization: L2 never goes backwards in version order).
    fn flush(&mut self, l2: &mut L2, mut weak: Option<&mut WeakState>) {
        for &w in &self.dirty_list {
            let w = w as usize;
            let line = self.lines.read(w);
            if line.epoch == self.epoch && line.dirty {
                let ver = self.seen.read(w).ver;
                write_back(l2, weak.as_deref_mut(), w, line.value, ver);
            }
        }
        self.dirty_list.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped (needs 2^32 device fences): hard-reset so no
            // stale line can alias the restarted epoch counter.
            self.lines.for_each_mapped(|line| line.epoch = 0);
            self.epoch = 1;
        }
    }
}

/// The L2: only pages some write has landed on exist, and a word on any
/// other reads 0 — what a freshly cleared flat array would hold.
type L2 = Paged<u32, L2_PAGE>;

/// Weak-mode bookkeeping: a global write-version counter and the version
/// of each L2 word, paged like the L2. Version 0 is "written before weak
/// mode", which is what a word nobody versioned reads.
#[derive(Debug)]
struct WeakState {
    next_ver: u32,
    l2_ver: L2,
}

impl WeakState {
    fn bump(&mut self) -> u32 {
        self.next_ver += 1;
        self.next_ver
    }

    /// Stamps L2 word `w` with a fresh version and returns it.
    fn stamp(&mut self, w: usize) -> u32 {
        let v = self.bump();
        *self.l2_ver.entry(w) = v;
        v
    }
}

/// Lands a dirty line's `value` (written at version `ver`) in L2 word `w`.
/// In weak mode only if it is not older than the L2 copy (write
/// serialization: L2 never goes backwards in version order).
#[inline]
fn write_back(l2: &mut L2, weak: Option<&mut WeakState>, w: usize, value: u32, ver: u32) {
    if let Some(wk) = weak {
        if ver < wk.l2_ver.read(w) {
            return;
        }
        *wk.l2_ver.entry(w) = ver;
    }
    *l2.entry(w) = value;
}

/// Source of one weak-load visibility candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandSource {
    /// This SM's own (clean) line — the legacy value, a no-op to choose.
    Local,
    /// The L2 copy — choosing it refills the local line (legacy fill).
    L2,
    /// Another SM's not-yet-written-back dirty line (early propagation).
    Remote,
}

/// The global-memory hierarchy: one L2 plus one L1 per SM.
#[derive(Debug)]
pub struct GlobalMem {
    l2: L2,
    /// The device's size in words: every address is checked against it,
    /// whatever the pages mapped so far.
    words: usize,
    l1: Vec<SmL1>,
    /// Weak-visibility bookkeeping; `None` keeps the strong model with
    /// zero overhead on the hot paths.
    weak: Option<WeakState>,
}

impl GlobalMem {
    /// Creates a memory of `words` zero-initialized 4-byte words served by
    /// `num_sms` streaming multiprocessors.
    #[must_use]
    pub fn new(words: usize, num_sms: usize) -> Self {
        GlobalMem {
            l2: L2::default(),
            words,
            l1: (0..num_sms).map(|_| SmL1::new()).collect(),
            weak: None,
        }
    }

    /// Switches on weak-visibility bookkeeping (the `Gpu` does this at
    /// construction when configured). Whatever was written before reads as
    /// version 0.
    pub fn enable_weak(&mut self) {
        self.weak = Some(WeakState {
            next_ver: 0,
            l2_ver: L2::default(),
        });
    }

    /// Whether weak-visibility bookkeeping is active.
    #[must_use]
    pub fn weak_enabled(&self) -> bool {
        self.weak.is_some()
    }

    /// Total words of backing storage.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The word a host copy addresses (the word holding `addr`, as ever);
    /// a copy past the device is a bug in the caller, not a simulated fault.
    fn host_word(&self, addr: u32) -> usize {
        let w = (addr / 4) as usize;
        assert!(
            w < self.words,
            "host access at address {addr:#x} is past the device's {} words",
            self.words
        );
        w
    }

    fn word_index(&self, addr: u32) -> Result<usize, SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::UnalignedAccess { addr });
        }
        let w = (addr / 4) as usize;
        if w >= self.words {
            return Err(SimError::OutOfBounds {
                addr,
                words: self.words,
            });
        }
        Ok(w)
    }

    /// Word load by a thread on `sm`.
    pub fn load(&mut self, sm: usize, addr: u32, volatile: bool) -> Result<u32, SimError> {
        let w = self.word_index(addr)?;
        if volatile {
            // Volatile reads observe L2, but a local *dirty* line is this
            // SM's own newer write and must win (program order).
            if let Some(line) = self.l1[sm].get(w) {
                if line.dirty {
                    return Ok(line.value);
                }
                self.l1[sm].remove(w);
            }
            if let Some(wk) = &self.weak {
                self.l1[sm].raise_floor(w, wk.l2_ver.read(w));
            }
            return Ok(self.l2.read(w));
        }
        if let Some(line) = self.l1[sm].get(w) {
            return Ok(line.value);
        }
        let v = self.l2.read(w);
        self.l1[sm].insert(w, v, false);
        Ok(v)
    }

    /// Word store by a thread on `sm`.
    pub fn store(
        &mut self,
        sm: usize,
        addr: u32,
        value: u32,
        volatile: bool,
    ) -> Result<(), SimError> {
        let w = self.word_index(addr)?;
        if volatile {
            self.l1[sm].remove(w);
            *self.l2.entry(w) = value;
            if let Some(wk) = &mut self.weak {
                wk.stamp(w);
            }
        } else {
            self.l1[sm].insert(w, value, true);
            if let Some(wk) = &mut self.weak {
                self.l1[sm].seen.entry(w).ver = wk.bump();
            }
        }
        Ok(())
    }

    /// Scoped fence issued by a thread on `sm`.
    ///
    /// Device scope: write back dirty lines, drop everything (acquire +
    /// release visibility). Block scope: intra-SM visibility is already
    /// immediate, so only ordering (tracked by the detector) is affected.
    pub fn fence(&mut self, sm: usize, scope: Scope) {
        if scope == Scope::Device {
            let GlobalMem { l2, l1, weak, .. } = self;
            l1[sm].flush(l2, weak.as_mut());
        }
    }

    /// Scoped atomic read-modify-write; returns the old value.
    ///
    /// `cmp` is only meaningful for [`AtomOp::Cas`].
    pub fn atomic(
        &mut self,
        sm: usize,
        addr: u32,
        op: AtomOp,
        src: u32,
        cmp: u32,
        scope: Scope,
    ) -> Result<u32, SimError> {
        let w = self.word_index(addr)?;
        match scope {
            Scope::Block => {
                // RMW on the SM-local view: atomic w.r.t. this SM only.
                let (old, old_ver) = match self.l1[sm].get(w) {
                    Some(line) => (line.value, self.l1[sm].seen.read(w).ver),
                    None => (
                        self.l2.read(w),
                        self.weak.as_ref().map_or(0, |wk| wk.l2_ver.read(w)),
                    ),
                };
                let new = apply_atom(op, old, src, cmp);
                self.l1[sm].insert(w, new, true);
                if let Some(wk) = &mut self.weak {
                    // The RMW read the old value: coherence floor rises.
                    let seen = self.l1[sm].seen.entry(w);
                    (seen.ver, seen.floor) = (wk.bump(), seen.floor.max(old_ver));
                }
                Ok(old)
            }
            Scope::Device => {
                // Publish any local version first, then RMW on L2; do not
                // keep a local copy (atomics bypass L1 on real hardware).
                if let Some(line) = self.l1[sm].get(w) {
                    if line.dirty {
                        let ver = self.l1[sm].seen.read(w).ver;
                        write_back(&mut self.l2, self.weak.as_mut(), w, line.value, ver);
                    }
                    self.l1[sm].remove(w);
                }
                let cell = self.l2.entry(w);
                let old = *cell;
                *cell = apply_atom(op, old, src, cmp);
                if let Some(wk) = &mut self.weak {
                    let v = wk.stamp(w);
                    self.l1[sm].raise_floor(w, v);
                }
                Ok(old)
            }
        }
    }

    /// Weak-visibility word load: collects every value the load may
    /// observe, asks `choose` to pick one when more than one is allowed,
    /// applies the chosen candidate's cache effect, and raises the read
    /// floor. Requires [`GlobalMem::enable_weak`]; candidate 0 is the
    /// legacy value, so `choose = |_| 0` reproduces [`GlobalMem::load`].
    pub fn load_weak(
        &mut self,
        sm: usize,
        addr: u32,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> Result<u32, SimError> {
        let w = self.word_index(addr)?;
        let Some(wk) = &self.weak else {
            return Err(SimError::BadConfig {
                reason: "load_weak requires enable_weak()".into(),
            });
        };
        let (l2, l2v) = (self.l2.read(w), wk.l2_ver.read(w));
        let floor = self.l1[sm].seen.read(w).floor;

        // This SM's own dirty line is its program-order-latest write: no
        // other value may legally be observed.
        let local = self.l1[sm].get(w);
        if let Some(line) = local.filter(|line| line.dirty) {
            let v = self.l1[sm].seen.read(w).ver;
            self.l1[sm].raise_floor(w, v);
            return Ok(line.value);
        }

        // Candidates in legacy-first order, deduplicated by value (two
        // observable copies holding the same value are indistinguishable,
        // so offering both would only pad the enumeration).
        let mut cands: Vec<(u32, u32, CandSource)> = Vec::new();
        if let Some(line) = local {
            let v = self.l1[sm].seen.read(w).ver;
            if v >= floor {
                cands.push((line.value, v, CandSource::Local));
            }
        }
        if l2v >= floor && !cands.iter().any(|c| c.0 == l2) {
            cands.push((l2, l2v, CandSource::L2));
        }
        for r in 0..self.l1.len() {
            if r == sm {
                continue;
            }
            if let Some(line) = self.l1[r].get(w).filter(|line| line.dirty) {
                let v = self.l1[r].seen.read(w).ver;
                if v >= floor && !cands.iter().any(|c| c.0 == line.value) {
                    cands.push((line.value, v, CandSource::Remote));
                }
            }
        }
        // The floor's source write is always still observable (it lives in
        // a dirty line or was serialized into L2 at version ≥ floor), so
        // the candidate list cannot be empty; fall back to L2 defensively.
        let (value, ver, source) = if cands.is_empty() {
            debug_assert!(false, "weak load found no candidate");
            (l2, l2v, CandSource::L2)
        } else if cands.len() == 1 {
            cands[0]
        } else {
            cands[choose(cands.len()).min(cands.len() - 1)]
        };
        match source {
            CandSource::Local => {}
            CandSource::L2 | CandSource::Remote => {
                // Cache the observed copy locally (clean), as the legacy
                // fill does; a snooped copy is cached the same way.
                self.l1[sm].insert(w, value, false);
                self.l1[sm].seen.entry(w).ver = ver;
            }
        }
        self.l1[sm].raise_floor(w, ver);
        Ok(value)
    }

    /// Host-side read of the coherent (L2) value, used to seed inputs and
    /// check results after all SM state has been flushed by kernel exit.
    ///
    /// # Panics
    /// Panics on an address past the device, as a host copy through a bad
    /// pointer should: over pages a stray read would otherwise return 0.
    #[must_use]
    pub fn read_coherent(&self, addr: u32) -> u32 {
        self.l2.read(self.host_word(addr))
    }

    /// Host-side coherent write (cudaMemcpy-to-device analogue).
    ///
    /// # Panics
    /// Panics on an address past the device; a stray write would otherwise
    /// quietly map a page beyond it.
    pub fn write_coherent(&mut self, addr: u32, value: u32) {
        let w = self.host_word(addr);
        *self.l2.entry(w) = value;
        if let Some(wk) = &mut self.weak {
            wk.stamp(w);
        }
        for l1 in &mut self.l1 {
            l1.remove(w);
        }
    }

    /// Kernel-exit flush: the implicit device-wide barrier at the end of a
    /// grid publishes every SM's writes (§2.1, implicit barrier 3).
    pub fn flush_all(&mut self) {
        for sm in 0..self.l1.len() {
            self.fence(sm, Scope::Device);
        }
    }
}

/// Pure RMW step shared by both scopes.
fn apply_atom(op: AtomOp, old: u32, src: u32, cmp: u32) -> u32 {
    match op {
        AtomOp::Add => old.wrapping_add(src),
        AtomOp::Exch => src,
        AtomOp::Cas => {
            if old == cmp {
                src
            } else {
                old
            }
        }
        AtomOp::Min => old.min(src),
        AtomOp::Max => old.max(src),
        AtomOp::Or => old | src,
        AtomOp::And => old & src,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn mem() -> GlobalMem {
        GlobalMem::new(64, 4)
    }

    #[test]
    fn store_visible_on_same_sm_immediately() {
        let mut m = mem();
        m.store(0, 8, 42, false).unwrap();
        assert_eq!(m.load(0, 8, false).unwrap(), 42);
    }

    #[test]
    fn store_invisible_across_sms_without_fence() {
        let mut m = mem();
        m.store(0, 8, 42, false).unwrap();
        assert_eq!(
            m.load(1, 8, false).unwrap(),
            0,
            "SM1 must not see SM0's unfenced store"
        );
    }

    #[test]
    fn device_fence_publishes_to_other_sms() {
        let mut m = mem();
        m.store(0, 8, 42, false).unwrap();
        m.fence(0, Scope::Device);
        assert_eq!(m.load(1, 8, false).unwrap(), 42);
    }

    #[test]
    fn block_fence_does_not_publish() {
        let mut m = mem();
        m.store(0, 8, 42, false).unwrap();
        m.fence(0, Scope::Block);
        assert_eq!(m.load(1, 8, false).unwrap(), 0);
    }

    #[test]
    fn stale_clean_line_persists_until_fence() {
        let mut m = mem();
        assert_eq!(m.load(1, 8, false).unwrap(), 0); // SM1 caches clean 0
        m.store(0, 8, 7, false).unwrap();
        m.fence(0, Scope::Device);
        // SM1 still sees its stale clean copy...
        assert_eq!(m.load(1, 8, false).unwrap(), 0);
        // ...until it fences (acquire side).
        m.fence(1, Scope::Device);
        assert_eq!(m.load(1, 8, false).unwrap(), 7);
    }

    #[test]
    fn volatile_load_bypasses_clean_l1() {
        let mut m = mem();
        assert_eq!(m.load(1, 8, false).unwrap(), 0);
        m.store(0, 8, 7, false).unwrap();
        m.fence(0, Scope::Device);
        assert_eq!(
            m.load(1, 8, true).unwrap(),
            7,
            "volatile read must observe L2"
        );
    }

    #[test]
    fn volatile_store_writes_through() {
        let mut m = mem();
        m.store(0, 8, 9, true).unwrap();
        assert_eq!(m.load(1, 8, false).unwrap(), 9);
    }

    #[test]
    fn block_atomic_loses_updates_across_sms() {
        // The Figure 1 failure mode: two SMs atomicAdd_block the same word.
        let mut m = mem();
        let one = 1;
        assert_eq!(
            m.atomic(0, 0, AtomOp::Add, one, 0, Scope::Block).unwrap(),
            0
        );
        assert_eq!(
            m.atomic(1, 0, AtomOp::Add, one, 0, Scope::Block).unwrap(),
            0
        );
        m.flush_all();
        // One of the two increments is lost: both RMWed their local view.
        assert_eq!(m.read_coherent(0), 1);
    }

    #[test]
    fn device_atomic_is_globally_atomic() {
        let mut m = mem();
        assert_eq!(m.atomic(0, 0, AtomOp::Add, 1, 0, Scope::Device).unwrap(), 0);
        assert_eq!(m.atomic(1, 0, AtomOp::Add, 1, 0, Scope::Device).unwrap(), 1);
        assert_eq!(m.read_coherent(0), 2);
    }

    #[test]
    fn device_atomic_publishes_local_dirty_line_first() {
        let mut m = mem();
        m.store(0, 0, 10, false).unwrap();
        // The device atomic must observe this SM's own program-order store.
        assert_eq!(
            m.atomic(0, 0, AtomOp::Add, 1, 0, Scope::Device).unwrap(),
            10
        );
        assert_eq!(m.read_coherent(0), 11);
    }

    #[test]
    fn cas_semantics() {
        let mut m = mem();
        assert_eq!(m.atomic(0, 4, AtomOp::Cas, 5, 0, Scope::Device).unwrap(), 0);
        assert_eq!(m.read_coherent(4), 5);
        // Failing CAS leaves value intact.
        assert_eq!(m.atomic(0, 4, AtomOp::Cas, 9, 0, Scope::Device).unwrap(), 5);
        assert_eq!(m.read_coherent(4), 5);
    }

    #[test]
    fn atom_ops_cover_all_variants() {
        assert_eq!(apply_atom(AtomOp::Add, 2, 3, 0), 5);
        assert_eq!(apply_atom(AtomOp::Exch, 2, 3, 0), 3);
        assert_eq!(apply_atom(AtomOp::Min, 2, 3, 0), 2);
        assert_eq!(apply_atom(AtomOp::Max, 2, 3, 0), 3);
        assert_eq!(apply_atom(AtomOp::Or, 0b01, 0b10, 0), 0b11);
        assert_eq!(apply_atom(AtomOp::And, 0b11, 0b10, 0), 0b10);
        assert_eq!(
            apply_atom(AtomOp::Add, u32::MAX, 1, 0),
            0,
            "atomicAdd wraps"
        );
    }

    #[test]
    fn unaligned_and_oob_accesses_fault() {
        let mut m = mem();
        assert!(matches!(
            m.load(0, 2, false),
            Err(SimError::UnalignedAccess { .. })
        ));
        assert!(matches!(
            m.load(0, 4 * 64, false),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.store(0, 1, 0, false),
            Err(SimError::UnalignedAccess { .. })
        ));
    }

    #[test]
    fn kernel_exit_flush_publishes_everything() {
        let mut m = mem();
        m.store(2, 12, 99, false).unwrap();
        m.flush_all();
        assert_eq!(m.read_coherent(12), 99);
    }

    #[test]
    fn host_write_invalidates_cached_copies() {
        let mut m = mem();
        assert_eq!(m.load(0, 8, false).unwrap(), 0); // cache clean 0 on SM0
        m.write_coherent(8, 5);
        assert_eq!(m.load(0, 8, false).unwrap(), 5);
    }

    /// A line cached 2^32 device fences ago carries the epoch the wrap
    /// restarts at: the wrap must drop it, and the one cached at
    /// `u32::MAX`, while lines cached afterwards work as ever.
    #[test]
    fn l1_epoch_wrap_drops_every_line() {
        let mut m = mem();
        assert_eq!(m.load(1, 8, false).unwrap(), 0); // clean 0 at epoch 1
        m.l1[1].epoch = u32::MAX;
        assert_eq!(m.load(1, 16, false).unwrap(), 0); // clean 0 at MAX
        for addr in [8, 16] {
            m.store(0, addr, 7, false).unwrap();
        }
        m.fence(0, Scope::Device);
        assert_eq!(m.load(1, 16, false).unwrap(), 0, "stale until SM1 fences");
        m.fence(1, Scope::Device);
        assert_eq!(m.l1[1].epoch, 1, "wrapped");
        assert_eq!(m.load(1, 8, false).unwrap(), 7, "epoch-1 line from before");
        assert_eq!(m.load(1, 16, false).unwrap(), 7, "epoch-MAX line");
        m.store(1, 20, 9, false).unwrap();
        assert_eq!(m.load(1, 20, false).unwrap(), 9, "cached after the wrap");
        m.fence(1, Scope::Device);
        assert_eq!(m.read_coherent(20), 9);
    }

    #[test]
    #[should_panic(expected = "host access at address 0x100 is past the device's 64 words")]
    fn host_write_past_the_device_panics() {
        mem().write_coherent(4 * 64, 1);
    }

    #[test]
    #[should_panic(expected = "host access at address 0x4000 is past the device's 64 words")]
    fn host_read_past_the_device_panics() {
        // One page in: not a word the page table could simply lack.
        let _ = mem().read_coherent(4 * L2_PAGE as u32);
    }

    // ---- the paged L2 against a flat memory ----

    /// Three whole L2 pages and a part-used fourth.
    const DEVICE: usize = 3 * L2_PAGE + 40;
    const SMS: usize = 3;

    /// One SM of [`Flat`]: every word's line, line version and read floor.
    struct FlatSm {
        line: Vec<Option<(u32, bool)>>,
        ver: Vec<u32>,
        floor: Vec<u32>,
    }

    /// The reference: the hierarchy of the module docs over arrays that
    /// hold every word of the device from the start — no page, no epoch,
    /// no dirty list — one `Vec<u32>` for the L2.
    struct Flat {
        l2: Vec<u32>,
        /// Weak mode: the last version handed out and each L2 word's.
        weak: Option<(u32, Vec<u32>)>,
        sms: Vec<FlatSm>,
    }

    impl Flat {
        fn new(weak: bool) -> Self {
            Flat {
                l2: vec![0; DEVICE],
                weak: weak.then(|| (0, vec![0; DEVICE])),
                sms: (0..SMS)
                    .map(|_| FlatSm {
                        line: vec![None; DEVICE],
                        ver: vec![0; DEVICE],
                        floor: vec![0; DEVICE],
                    })
                    .collect(),
            }
        }

        fn word(&self, addr: u32) -> Result<usize, SimError> {
            if !addr.is_multiple_of(4) {
                return Err(SimError::UnalignedAccess { addr });
            }
            if addr as usize / 4 >= DEVICE {
                return Err(SimError::OutOfBounds {
                    addr,
                    words: DEVICE,
                });
            }
            Ok(addr as usize / 4)
        }

        fn bump(&mut self) -> u32 {
            self.weak.as_mut().map_or(0, |(next, _)| {
                *next += 1;
                *next
            })
        }

        fn l2_ver(&self, w: usize) -> u32 {
            self.weak.as_ref().map_or(0, |(_, ver)| ver[w])
        }

        fn stamp_l2(&mut self, w: usize) -> u32 {
            let v = self.bump();
            if let Some((_, ver)) = &mut self.weak {
                ver[w] = v;
            }
            v
        }

        fn write_back(&mut self, sm: usize, w: usize, value: u32) {
            let ver = self.sms[sm].ver[w];
            if let Some((_, l2_ver)) = &mut self.weak {
                if ver < l2_ver[w] {
                    return;
                }
                l2_ver[w] = ver;
            }
            self.l2[w] = value;
        }

        fn raise_floor(&mut self, sm: usize, w: usize, ver: u32) {
            let floor = &mut self.sms[sm].floor[w];
            *floor = (*floor).max(ver);
        }

        fn load(&mut self, sm: usize, addr: u32, volatile: bool) -> Result<u32, SimError> {
            let w = self.word(addr)?;
            match (self.sms[sm].line[w], volatile) {
                (Some((value, true)), true) | (Some((value, _)), false) => Ok(value),
                (_, true) => {
                    self.sms[sm].line[w] = None;
                    let l2_ver = self.l2_ver(w);
                    self.raise_floor(sm, w, l2_ver);
                    Ok(self.l2[w])
                }
                (None, false) => {
                    self.sms[sm].line[w] = Some((self.l2[w], false));
                    Ok(self.l2[w])
                }
            }
        }

        fn store(
            &mut self,
            sm: usize,
            addr: u32,
            value: u32,
            volatile: bool,
        ) -> Result<(), SimError> {
            let w = self.word(addr)?;
            if volatile {
                self.sms[sm].line[w] = None;
                self.l2[w] = value;
                self.stamp_l2(w);
            } else {
                self.sms[sm].line[w] = Some((value, true));
                if self.weak.is_some() {
                    self.sms[sm].ver[w] = self.bump();
                }
            }
            Ok(())
        }

        fn fence(&mut self, sm: usize, scope: Scope) {
            if scope == Scope::Block {
                return;
            }
            for w in 0..DEVICE {
                if let Some((value, true)) = self.sms[sm].line[w] {
                    self.write_back(sm, w, value);
                }
                self.sms[sm].line[w] = None;
            }
        }

        fn atomic(
            &mut self,
            sm: usize,
            addr: u32,
            (op, src, cmp): (AtomOp, u32, u32),
            scope: Scope,
        ) -> Result<u32, SimError> {
            let w = self.word(addr)?;
            let line = self.sms[sm].line[w];
            if scope == Scope::Block {
                let (old, old_ver) = match line {
                    Some((value, _)) => (value, self.sms[sm].ver[w]),
                    None => (self.l2[w], self.l2_ver(w)),
                };
                self.sms[sm].line[w] = Some((apply_atom(op, old, src, cmp), true));
                if self.weak.is_some() {
                    self.sms[sm].ver[w] = self.bump();
                    self.raise_floor(sm, w, old_ver);
                }
                return Ok(old);
            }
            if let Some((value, true)) = line {
                self.write_back(sm, w, value);
            }
            self.sms[sm].line[w] = None;
            let old = self.l2[w];
            self.l2[w] = apply_atom(op, old, src, cmp);
            let v = self.stamp_l2(w);
            self.raise_floor(sm, w, v);
            Ok(old)
        }

        fn load_weak(&mut self, sm: usize, addr: u32, last: bool) -> Result<u32, SimError> {
            let w = self.word(addr)?;
            let (l2_ver, floor) = (self.l2_ver(w), self.sms[sm].floor[w]);
            let own = self.sms[sm].ver[w];
            if let Some((value, true)) = self.sms[sm].line[w] {
                self.raise_floor(sm, w, own);
                return Ok(value);
            }
            // (value, version, whether choosing it refills the local line)
            let mut cands: Vec<(u32, u32, bool)> = Vec::new();
            let mut offer = |value, ver, fill| {
                if ver >= floor && !cands.iter().any(|c| c.0 == value) {
                    cands.push((value, ver, fill));
                }
            };
            if let Some((value, _)) = self.sms[sm].line[w] {
                offer(value, own, false);
            }
            offer(self.l2[w], l2_ver, true);
            for r in (0..SMS).filter(|&r| r != sm) {
                if let Some((value, true)) = self.sms[r].line[w] {
                    offer(value, self.sms[r].ver[w], true);
                }
            }
            let (value, ver, fill) = cands[if last { cands.len() - 1 } else { 0 }];
            if fill {
                self.sms[sm].line[w] = Some((value, false));
                self.sms[sm].ver[w] = ver;
            }
            self.raise_floor(sm, w, ver);
            Ok(value)
        }

        fn write_coherent(&mut self, addr: u32, value: u32) {
            let w = addr as usize / 4;
            self.l2[w] = value;
            self.stamp_l2(w);
            self.sms.iter_mut().for_each(|sm| sm.line[w] = None);
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// SM, address, volatile, and — weak mode, chooser not fixed —
        /// whether it takes its last candidate or its first.
        Load(usize, u32, bool, bool),
        Store(usize, u32, u32, bool),
        Atomic(usize, u32, (AtomOp, u32, u32), Scope),
        Fence(usize, Scope),
        FlushAll,
        HostRead(u32),
        HostWrite(u32, u32),
    }

    /// What an operation observed.
    type Seen = Result<Option<u32>, SimError>;

    /// `None` is the strong mode; `Some(Some(last))` the weak one with
    /// every plain load taking its last candidate, or every one its first;
    /// `Some(None)` leaves the choice to each load.
    type Mode = Option<Option<bool>>;

    fn on_paged(m: &mut GlobalMem, op: Op, weak: Mode) -> Seen {
        Ok(match op {
            Op::Load(sm, addr, volatile, last) => Some(match weak {
                Some(fixed) if !volatile => {
                    let last = fixed.unwrap_or(last);
                    m.load_weak(sm, addr, &mut |n| if last { n - 1 } else { 0 })?
                }
                _ => m.load(sm, addr, volatile)?,
            }),
            Op::Store(sm, addr, value, volatile) => {
                m.store(sm, addr, value, volatile)?;
                None
            }
            Op::Atomic(sm, addr, (op, src, cmp), scope) => {
                Some(m.atomic(sm, addr, op, src, cmp, scope)?)
            }
            Op::Fence(sm, scope) => {
                m.fence(sm, scope);
                None
            }
            Op::FlushAll => {
                m.flush_all();
                None
            }
            Op::HostRead(addr) => Some(m.read_coherent(addr)),
            Op::HostWrite(addr, value) => {
                m.write_coherent(addr, value);
                None
            }
        })
    }

    fn on_flat(m: &mut Flat, op: Op, weak: Mode) -> Seen {
        Ok(match op {
            Op::Load(sm, addr, volatile, last) => Some(match weak {
                Some(fixed) if !volatile => m.load_weak(sm, addr, fixed.unwrap_or(last))?,
                _ => m.load(sm, addr, volatile)?,
            }),
            Op::Store(sm, addr, value, volatile) => {
                m.store(sm, addr, value, volatile)?;
                None
            }
            Op::Atomic(sm, addr, rmw, scope) => Some(m.atomic(sm, addr, rmw, scope)?),
            Op::Fence(sm, scope) => {
                m.fence(sm, scope);
                None
            }
            Op::FlushAll => {
                (0..SMS).for_each(|sm| m.fence(sm, Scope::Device));
                None
            }
            Op::HostRead(addr) => Some(m.l2[addr as usize / 4]),
            Op::HostWrite(addr, value) => {
                m.write_coherent(addr, value);
                None
            }
        })
    }

    /// A byte address from `pick` and `at < 4`: mostly one of the three
    /// words at either end of the device or around its first page boundary
    /// (few, and unevenly drawn, so that operations meet); from `pick` 9 up
    /// (host copies stop short of it) unaligned, or past the end by a
    /// word, by pages, by most of the address space.
    fn address(pick: u32, at: u32) -> u32 {
        let (device, page) = (DEVICE as u32, L2_PAGE as u32);
        let at = at.saturating_sub(1);
        let word = match pick {
            0..=4 | 9 => at,
            5..=7 | 10 => device - 1 - at,
            8 => page - 2 + at,
            _ => [device, device + page, u32::MAX / 4][at as usize],
        };
        word * 4 + if matches!(pick, 9 | 10) { 2 } else { 0 }
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        const ATOMS: [AtomOp; 7] = [
            AtomOp::Add,
            AtomOp::Exch,
            AtomOp::Cas,
            AtomOp::Min,
            AtomOp::Max,
            AtomOp::Or,
            AtomOp::And,
        ];
        // Few distinct values, so CAS compares hit and two copies of a
        // word often hold the same one (the candidate list drops those).
        let op = (
            0..17u32,
            0..SMS,
            (0..12u32, 0..4u32),
            (0..ATOMS.len(), 0..6u32, 0..6u32),
            (any::<bool>(), any::<bool>()),
        )
            .prop_map(|(what, sm, (pick, at), (atom, x, cmp), (flag, last))| {
                let addr = address(pick, at);
                let scope = if flag { Scope::Block } else { Scope::Device };
                match what {
                    0..=5 => Op::Load(sm, addr, flag, last),
                    6..=8 => Op::Store(sm, addr, x, flag),
                    9..=11 => Op::Atomic(sm, addr, (ATOMS[atom], x, cmp), scope),
                    12..=13 => Op::Fence(sm, scope),
                    14 => Op::FlushAll,
                    15 => Op::HostRead(address(pick % 9, at)),
                    _ => Op::HostWrite(address(pick % 9, at), x),
                }
            });
        prop::collection::vec(op, 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every operation of the memory, across three SMs, at both ends of
        /// a multi-page device and off it, strong and weak (loads taking
        /// their first candidate, their last, or either): each value and each
        /// error equals the flat reference's, as does every word after the
        /// kernel-exit flush — and reading maps no page.
        #[test]
        fn paged_l2_agrees_with_a_flat_memory(
            weak in prop_oneof![
                Just(None),
                Just(Some(Some(false))),
                Just(Some(Some(true))),
                Just(Some(None)),
            ],
            script in ops(),
        ) {
            let mut paged = GlobalMem::new(DEVICE, SMS);
            if weak.is_some() {
                paged.enable_weak();
            }
            let mut flat = Flat::new(weak.is_some());
            // The script with every write left out: all it reads is 0.
            for op in &script {
                if matches!(op, Op::Load(..) | Op::Fence(..) | Op::FlushAll | Op::HostRead(_)) {
                    let seen = on_paged(&mut paged, *op, weak);
                    prop_assert_eq!(&seen, &on_flat(&mut flat, *op, weak), "read-only {:?}", op);
                    prop_assert!(matches!(seen, Ok(None | Some(0)) | Err(_)));
                }
            }
            let versions = paged.weak.as_ref().map_or(0, |wk| wk.l2_ver.mapped_pages());
            prop_assert_eq!((paged.l2.mapped_pages(), versions), (0, 0), "a load mapped a page");
            for (i, op) in script.iter().enumerate() {
                let seen = on_paged(&mut paged, *op, weak);
                prop_assert_eq!(seen, on_flat(&mut flat, *op, weak), "op {} {:?}", i, op);
            }
            paged.flush_all();
            (0..SMS).for_each(|sm| flat.fence(sm, Scope::Device));
            for (w, value) in flat.l2.iter().enumerate() {
                prop_assert_eq!(paged.read_coherent(w as u32 * 4), *value, "word {}", w);
            }
            prop_assert!(paged.l2.mapped_pages() <= 4);
        }
    }

    // ---- weak-visibility mode ----

    fn weak_mem() -> GlobalMem {
        let mut m = GlobalMem::new(64, 4);
        m.enable_weak();
        m
    }

    /// Runs a weak load forced to candidate `pick`, returning the value
    /// and the candidate count the chooser saw (0 if not consulted).
    fn weak_load(m: &mut GlobalMem, sm: usize, addr: u32, pick: usize) -> (u32, usize) {
        let mut seen = 0;
        let v = m
            .load_weak(sm, addr, &mut |n| {
                seen = n;
                pick
            })
            .unwrap();
        (v, seen)
    }

    #[test]
    fn weak_candidate_zero_reproduces_strong_model() {
        // Mirror `stale_clean_line_persists_until_fence` with choice 0.
        let mut m = weak_mem();
        assert_eq!(weak_load(&mut m, 1, 8, 0).0, 0);
        m.store(0, 8, 7, false).unwrap();
        m.fence(0, Scope::Device);
        assert_eq!(weak_load(&mut m, 1, 8, 0).0, 0, "stale clean line wins");
        m.fence(1, Scope::Device);
        assert_eq!(weak_load(&mut m, 1, 8, 0).0, 7);
    }

    #[test]
    fn weak_load_offers_remote_dirty_line() {
        // SM0's unfenced store is observable early (non-multi-copy-atomic
        // propagation) but never forced.
        let mut m = weak_mem();
        m.store(0, 8, 42, false).unwrap();
        let (v, n) = weak_load(&mut m, 1, 8, 1);
        assert_eq!(n, 2, "candidates: L2 (0) and SM0's dirty 42");
        assert_eq!(v, 42);
        // Having observed 42, SM1 may not go backwards to 0.
        let (v, n) = weak_load(&mut m, 1, 8, 0);
        assert_eq!((v, n), (42, 0), "floor forces the snooped value");
    }

    #[test]
    fn weak_load_own_dirty_line_is_forced() {
        let mut m = weak_mem();
        m.store(1, 8, 9, false).unwrap();
        m.store(0, 8, 5, false).unwrap(); // remote dirty, must not matter
        let (v, n) = weak_load(&mut m, 1, 8, 1);
        assert_eq!((v, n), (9, 0), "own write wins, chooser not consulted");
    }

    #[test]
    fn weak_stale_reread_after_snooping_other_location() {
        // The heart of the MP-with-writer-fence anomaly: a reader that
        // cached x=0 clean may re-read the stale 0 even after the writer's
        // device fence published x=1.
        let mut m = weak_mem();
        assert_eq!(weak_load(&mut m, 1, 8, 0).0, 0); // cache x=0 clean
        m.store(0, 8, 1, false).unwrap();
        m.fence(0, Scope::Device);
        let (v, n) = weak_load(&mut m, 1, 8, 0);
        assert_eq!(n, 2, "stale local 0 and fresh L2 1 both observable");
        assert_eq!(v, 0);
        // Choosing the fresh copy raises the floor past the stale line.
        let (v, _) = weak_load(&mut m, 1, 8, 1);
        assert_eq!(v, 1);
        let (v, n) = weak_load(&mut m, 1, 8, 0);
        assert_eq!((v, n), (1, 0), "coherence: no going back to 0");
    }

    #[test]
    fn weak_fence_writeback_respects_l2_version_order() {
        // SM0 writes first, SM1 second; flushing SM1 then SM0 must leave
        // SM1's (newer) value in L2 — the strong model would let SM0's
        // later flush clobber it.
        let mut m = weak_mem();
        m.store(0, 8, 1, false).unwrap();
        m.store(1, 8, 2, false).unwrap();
        m.fence(1, Scope::Device);
        m.fence(0, Scope::Device);
        assert_eq!(m.read_coherent(8), 2, "older write must not clobber");
    }

    #[test]
    fn weak_volatile_load_raises_floor_to_l2() {
        let mut m = weak_mem();
        m.store(0, 8, 3, true).unwrap(); // volatile write-through
        assert_eq!(m.load(1, 8, true).unwrap(), 3);
        // Plain reads afterwards may not resurrect the initial 0.
        let (v, n) = weak_load(&mut m, 1, 8, 0);
        assert_eq!((v, n), (3, 0));
    }

    #[test]
    fn weak_device_atomic_observes_and_raises_floor() {
        let mut m = weak_mem();
        m.store(0, 0, 4, false).unwrap();
        m.fence(0, Scope::Device);
        assert_eq!(m.atomic(1, 0, AtomOp::Add, 1, 0, Scope::Device).unwrap(), 4);
        assert_eq!(m.read_coherent(0), 5);
        let (v, n) = weak_load(&mut m, 1, 0, 0);
        assert_eq!((v, n), (5, 0), "atomic's RMW pins the floor at latest");
    }

    #[test]
    fn weak_block_atomic_still_loses_updates() {
        // Weak bookkeeping must not accidentally strengthen block atomics.
        let mut m = weak_mem();
        assert_eq!(m.atomic(0, 0, AtomOp::Add, 1, 0, Scope::Block).unwrap(), 0);
        assert_eq!(m.atomic(1, 0, AtomOp::Add, 1, 0, Scope::Block).unwrap(), 0);
        m.flush_all();
        assert_eq!(m.read_coherent(0), 1);
    }
}
