//! The memory-metadata table: one 16-byte entry per 4-byte word of global
//! memory (4× overhead, §6.1), stored packed exactly as Figure 4 and backed
//! by a simulated UVM managed region so no device memory is pinned.
//!
//! Entries are direct-mapped by word index with an address tag; a tag
//! mismatch means the slot is being reused for a different address and the
//! entry re-initializes (equivalent to a first access). A per-slot *epoch*
//! invalidates all entries between kernel launches — the implicit
//! device-wide barrier at grid completion orders everything across kernels,
//! so carrying metadata over would only manufacture false positives.
//! (The paper's detector reinitializes metadata at tool setup; the epoch is
//! the zero-cost equivalent for a long-lived table.)
//! The table hands out and takes back the *raw* word pair; decoding is
//! the engine's business, and only for what the packed bits cannot decide.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bitfield::{TAG_FIELD, TAG_SHIFT, VALID};
use faults::{FaultConfig, FaultInjector, FaultSite, FaultStats};
use gpu_sim::paged::Paged;
use uvm_sim::ManagedRegion;

/// Bytes of metadata per 4-byte word (Figure 4).
pub const ENTRY_BYTES: u64 = 16;

/// Slots per host page of the per-word tables (this one and the engine's
/// contention table, so a row lies on one page of both or of neither):
/// 20 KB a page, and a 32-word row crosses a boundary once in 32.
pub(crate) const SLOT_PAGE: usize = 1024;

/// Construction parameters of a [`MetadataTable`].
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// 4-byte words of global memory the table shadows.
    pub words: usize,
    /// Managed region size (the paper allocates ~4× of GPU capacity).
    pub virtual_bytes: u64,
    /// Device bytes available to back metadata residency.
    pub device_budget_bytes: u64,
    /// Logical address multiplier for footprint-scaling experiments.
    pub addr_scale: u64,
    /// Entry-capacity override. `None` sizes the table to cover every
    /// word injectively (no aliasing — today's behaviour); `Some(n)` caps
    /// it at `n` entries, so distinct words contend for slots and live
    /// metadata is evicted under pressure — the bounded-eviction overflow
    /// mode measured by `bench --bin pressure`.
    pub capacity_words: Option<usize>,
    /// Fault plane for the table and its backing UVM region.
    pub faults: FaultConfig,
}

impl TableConfig {
    /// The zero-fault, full-capacity configuration (today's behaviour).
    #[must_use]
    pub fn covering(words: usize) -> Self {
        TableConfig {
            words,
            virtual_bytes: 1 << 30,
            device_budget_bytes: 1 << 30,
            addr_scale: 1,
            capacity_words: None,
            faults: FaultConfig::disabled(),
        }
    }
}

/// Degradation counters of the metadata table. The detector mirrors their
/// sum into `IguardStats::missed_checks`, so every lost check is visible
/// in reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Live entries evicted by genuine capacity pressure (a smaller-than-
    /// memory table reusing a slot for a different address).
    pub capacity_evictions: u64,
    /// Entries forgotten because the fault plane evicted them.
    pub injected_evictions: u64,
    /// Entries forgotten because the fault plane aliased their tag.
    pub injected_aliases: u64,
}

impl MetaStats {
    /// Total loads that lost their previous-accessor information.
    #[must_use]
    pub fn total_evictions(&self) -> u64 {
        self.capacity_evictions + self.injected_evictions + self.injected_aliases
    }

    /// Field-wise sum, for aggregating detector instances (a service
    /// tenant's jobs). `total_evictions` distributes over the sum, so
    /// accounting invariants survive accumulation.
    pub fn accumulate(&mut self, other: &MetaStats) {
        let MetaStats {
            capacity_evictions,
            injected_evictions,
            injected_aliases,
        } = *other;
        self.capacity_evictions += capacity_evictions;
        self.injected_evictions += injected_evictions;
        self.injected_aliases += injected_aliases;
    }
}

/// One table slot: the Figure-4 word pair plus the launch epoch that
/// wrote it. Packed to 4-byte alignment so a slot is 20 bytes — what the
/// three parallel vectors it replaces cost — and one cache line serves the
/// whole load.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed(4))]
pub(crate) struct Slot {
    acc: u64,
    wr: u64,
    epoch: u32,
}

impl Slot {
    /// The pair stored here in `epoch` under `tag`; anything else — an
    /// empty slot, a stale epoch, another address's entry — reads as a
    /// first access: [`VALID`] clear and only the tag set.
    #[inline(always)]
    pub(crate) fn read(&self, epoch: u32, tag: u64) -> (u64, u64) {
        if self.epoch == epoch && self.acc & TAG_FIELD == tag {
            (self.acc, self.wr)
        } else {
            (tag, 0)
        }
    }

    /// Stores the pair, stamped with `tag` and `epoch`.
    #[inline(always)]
    pub(crate) fn write(&mut self, epoch: u32, tag: u64, (acc, wr): (u64, u64)) {
        (self.acc, self.wr, self.epoch) = ((acc & !TAG_FIELD) | tag, wr, epoch);
    }
}

/// The UVM-backed metadata table.
#[derive(Debug)]
pub struct MetadataTable {
    slots: Paged<Slot, SLOT_PAGE>,
    cur_epoch: u32,
    /// `capacity - 1`; capacity is rounded up to a power of two so the
    /// per-access direct mapping is a mask, not a division.
    slot_mask: usize,
    /// `log2(capacity)`; the tag is a shift, not a division.
    tag_shift: u32,
    uvm: ManagedRegion,
    /// Multiplier mapping backing word indices to *logical* metadata
    /// offsets, so footprint-scaling experiments (Figure 14) exercise the
    /// paging behaviour of multi-GB metadata with small backing arrays.
    addr_scale: u64,
    /// Whether distinct in-bounds words can contend for one slot (only
    /// with a `capacity_words` override below `words`).
    can_alias: bool,
    faults: FaultInjector,
    meta_stats: MetaStats,
}

/// Result of a metadata load.
#[derive(Debug, Clone, Copy)]
pub struct MetaLoad {
    /// Raw accessor word; [`VALID`] clear means first access (slot empty,
    /// reused for a new tag, or stale epoch) and only the tag is set.
    pub acc: u64,
    /// Raw writer word (0 on a first access).
    pub wr: u64,
    /// UVM cycles incurred touching the entry's page (0 when resident).
    pub uvm_cycles: u64,
    /// Previous-accessor information was lost for this load (capacity
    /// eviction or injected fault): the race check against the forgotten
    /// accessor cannot run, and the detector counts a missed check.
    pub evicted: bool,
}

impl MetadataTable {
    /// Creates a table shadowing `cfg.words` 4-byte words of global
    /// memory (at least one), with optional capacity pressure and fault
    /// injection.
    #[must_use]
    pub fn new(cfg: TableConfig) -> Self {
        let words = cfg.words.max(1);
        // Power-of-two capacity: slot/tag become mask/shift. Without an
        // override the capacity covers every in-bounds word index
        // injectively, so the mapping is identical to the modulo/divide
        // scheme and behaviour is unchanged in practice. A smaller
        // override makes distinct words contend for slots — bounded
        // eviction under pressure.
        let capacity = cfg
            .capacity_words
            .unwrap_or(words)
            .max(1)
            .next_power_of_two();
        let mut uvm =
            ManagedRegion::new(cfg.virtual_bytes.max(ENTRY_BYTES), cfg.device_budget_bytes);
        uvm.set_faults(FaultInjector::new(&cfg.faults, "metadata-uvm"));
        // Slot storage is the pages that get written (an unwritten slot
        // reads as the zeroed slot preallocation would hold); only the
        // mask/shift use `capacity`.
        MetadataTable {
            slots: Paged::default(),
            cur_epoch: 0,
            slot_mask: capacity - 1,
            tag_shift: capacity.trailing_zeros(),
            uvm,
            addr_scale: cfg.addr_scale.max(1),
            can_alias: capacity < words.next_power_of_two(),
            faults: FaultInjector::new(&cfg.faults, "metadata"),
            meta_stats: MetaStats::default(),
        }
    }

    /// Degradation counters (evictions, injected forgetfulness).
    #[must_use]
    pub fn meta_stats(&self) -> MetaStats {
        self.meta_stats
    }

    /// Injected-fault counters for the table itself plus its UVM region.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.faults.stats();
        s.accumulate(&self.uvm.fault_stats());
        s
    }

    /// Invalidates every entry (new kernel launch).
    pub fn begin_epoch(&mut self) {
        self.cur_epoch = self.cur_epoch.wrapping_add(1);
    }

    /// Prefaults up to `max_bytes` of the managed metadata region
    /// (`cudaMemset` warm-up); returns setup cycles to charge.
    pub fn prefault(&mut self, max_bytes: u64) -> u64 {
        self.uvm.prefault(max_bytes)
    }

    /// UVM statistics (faults, evictions, prefaulted pages).
    #[must_use]
    pub fn uvm_stats(&self) -> uvm_sim::UvmStats {
        self.uvm.stats()
    }

    #[inline]
    fn slot(&self, word_idx: u32) -> usize {
        word_idx as usize & self.slot_mask
    }

    /// The tag of `word_idx`, in place at the top of the accessor word
    /// (the shift drops all but its low `TAG_BITS` bits).
    #[inline]
    fn tag(&self, word_idx: u32) -> u64 {
        (u64::from(word_idx) >> self.tag_shift) << TAG_SHIFT
    }

    /// Loads the raw words for `word_idx`, touching its UVM page.
    #[must_use]
    #[inline(always)]
    pub fn load(&mut self, word_idx: u32) -> MetaLoad {
        self.open(word_idx).0
    }

    /// [`MetadataTable::load`], plus the slot it read and the epoch and
    /// tag a write-back stamps it with: a load-check-store visit resolves
    /// its slot once.
    #[inline(always)]
    pub(crate) fn open(&mut self, word_idx: u32) -> (MetaLoad, &mut Slot, u32, u64) {
        let mut off = u64::from(word_idx) * ENTRY_BYTES * self.addr_scale;
        if off >= self.uvm.len_bytes() {
            off %= self.uvm.len_bytes();
        }
        // `off` is inside the region, so the touch cannot be refused.
        let uvm_cycles = self.uvm.try_touch(off).map_or(0, |t| t.cycles());
        let (at, tag) = (self.slot(word_idx), self.tag(word_idx));
        // A slot nobody wrote, like a stale one, reads as a first access.
        let slot = self.slots.entry(at);
        let (mut acc, mut wr) = slot.read(self.cur_epoch, tag);
        // A live, valid entry with a different tag is a *capacity
        // eviction*: the slot is being reused for another address and its
        // previous-accessor information is lost. Only possible when a
        // capacity override lets in-bounds words alias.
        let mut evicted = self.can_alias
            && slot.epoch == self.cur_epoch
            && slot.acc & VALID != 0
            && slot.acc & TAG_FIELD != tag;
        if evicted {
            self.meta_stats.capacity_evictions += 1;
        } else if self.faults.enabled() {
            // Injected forgetfulness, consulted only when the load would
            // otherwise proceed normally so each fired fault maps to
            // exactly one MetaStats counter.
            if self.faults.fire(FaultSite::MetaEviction) {
                self.meta_stats.injected_evictions += 1;
                evicted = true;
            } else if self.faults.fire(FaultSite::MetaTagAlias) {
                self.meta_stats.injected_aliases += 1;
                evicted = true;
            }
            if evicted {
                (acc, wr) = (tag, 0);
            }
        }
        let loaded = MetaLoad {
            acc,
            wr,
            uvm_cycles,
            evicted,
        };
        (loaded, slot, self.cur_epoch, tag)
    }

    /// Stores the raw words for `word_idx` (stamps tag and epoch). Fresh
    /// slots carry epoch 0 and all-zero words, which read as a first
    /// access whether or not 0 is the live epoch.
    #[inline(always)]
    pub fn store(&mut self, word_idx: u32, acc: u64, wr: u64) {
        let (at, tag) = (self.slot(word_idx), self.tag(word_idx));
        self.slots.entry(at).write(self.cur_epoch, tag, (acc, wr));
    }

    /// The slots of words `first..=last` with the live epoch, when loading
    /// and storing each word is known to be a plain slot access under tag
    /// 0 and nothing else: the words are their own slots (inside the
    /// table, no capacity cap folding other words onto them), no fault
    /// plane can forget an entry, and the span's pages are resident in an
    /// unscaled region with no UVM fault armed, so the touches would all
    /// be free hits — and the span lies on one host page of slots (one row
    /// in 32 does not). `None` sends the caller down the per-word path.
    #[inline(always)]
    pub(crate) fn row(&mut self, first: u32, last: u32) -> Option<(&mut [Slot], u32)> {
        let off = |word: u32| u64::from(word) * ENTRY_BYTES;
        let plain = last as usize <= self.slot_mask
            && !self.can_alias
            && self.addr_scale == 1
            && !self.faults.enabled()
            && self.uvm.span_resident(off(first), off(last));
        if !plain {
            return None;
        }
        let slots = self.slots.row(first as usize, last as usize)?;
        Some((slots, self.cur_epoch))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bitfield::{AccessorInfo, Flags, MetadataEntry};

    fn table(words: usize) -> MetadataTable {
        MetadataTable::new(TableConfig::covering(words))
    }

    /// The raw words of a valid entry last accessed by `warp`.
    fn valid_entry(warp: u32) -> (u64, u64) {
        MetadataEntry {
            tag: 0,
            flags: Flags {
                valid: true,
                ..Flags::default()
            },
            accessor: AccessorInfo {
                warp_id: warp,
                ..AccessorInfo::default()
            },
            writer: AccessorInfo::default(),
            locks: 0,
        }
        .pack()
    }

    fn store(t: &mut MetadataTable, word: u32, (acc, wr): (u64, u64)) {
        t.store(word, acc, wr);
    }

    fn entry(l: MetaLoad) -> MetadataEntry {
        MetadataEntry::unpack(l.acc, l.wr)
    }

    #[test]
    fn fresh_table_yields_invalid_entries() {
        let mut t = table(64);
        assert!(!entry(t.load(7)).flags.valid);
    }

    #[test]
    fn store_then_load_round_trips() {
        let mut t = table(64);
        store(&mut t, 7, valid_entry(42));
        let l = t.load(7);
        assert!(entry(l).flags.valid);
        assert_eq!(entry(l).accessor.warp_id, 42);
    }

    #[test]
    fn epoch_invalidates_all_entries() {
        let mut t = table(64);
        store(&mut t, 7, valid_entry(42));
        t.begin_epoch();
        assert!(
            !entry(t.load(7)).flags.valid,
            "new kernel must see fresh metadata"
        );
    }

    #[test]
    fn tag_mismatch_reinitializes_slot() {
        let mut t = table(64);
        store(&mut t, 7, valid_entry(42));
        // word 71 maps to the same slot (71 % 64 == 7) with a different tag.
        let l = t.load(71);
        assert!(
            !entry(l).flags.valid,
            "aliased slot must present as first access"
        );
        assert_eq!(entry(l).tag, 1);
    }

    #[test]
    fn first_touch_pays_uvm_fault_then_hits() {
        let mut t = table(64);
        let first = t.load(7);
        assert!(first.uvm_cycles > 0, "first touch must fault");
        let second = t.load(7);
        assert_eq!(second.uvm_cycles, 0, "page now resident");
    }

    #[test]
    fn prefault_eliminates_faults() {
        let mut t = table(64);
        let setup = t.prefault(u64::MAX);
        assert!(setup > 0);
        assert_eq!(t.load(7).uvm_cycles, 0);
        assert_eq!(t.uvm_stats().faults, 0);
    }

    #[test]
    fn addr_scale_spreads_touches_over_more_pages() {
        // 64 entries share one 2 MiB page; scaled so that each entry
        // lands on a page of its own, they spread over 64.
        let mut near = MetadataTable::new(TableConfig::covering(64));
        let mut far = MetadataTable::new(TableConfig {
            addr_scale: uvm_sim::PAGE_BYTES / ENTRY_BYTES,
            ..TableConfig::covering(64)
        });
        for w in 0..64u32 {
            let _ = near.load(w);
            let _ = far.load(w);
        }
        let faults = (near.uvm_stats().faults, far.uvm_stats().faults);
        assert_eq!(faults, (1, 64), "scaled addressing must touch more pages");
    }

    #[test]
    fn empty_table_is_clamped_to_one_word() {
        let mut t = table(0);
        store(&mut t, 0, valid_entry(42));
        assert_eq!(entry(t.load(0)).accessor.warp_id, 42);
        // One slot: word 1 takes it under tag 1 and reads as fresh.
        let l = t.load(1);
        assert!(!entry(l).flags.valid);
        assert_eq!(entry(l).tag, 1);
    }

    #[test]
    fn full_capacity_never_counts_capacity_evictions() {
        let mut t = table(64);
        for w in 0..64u32 {
            store(&mut t, w, valid_entry(w));
        }
        for w in 0..64u32 {
            assert!(!t.load(w).evicted);
        }
        assert_eq!(t.meta_stats(), MetaStats::default());
    }

    #[test]
    fn capacity_override_evicts_live_entries() {
        let mut t = MetadataTable::new(TableConfig {
            capacity_words: Some(8),
            ..TableConfig::covering(64)
        });
        store(&mut t, 3, valid_entry(1));
        // More than four entries: word 7 keeps a slot of its own.
        assert!(!t.load(7).evicted);
        // At most eight: word 11 maps to slot 3, and loading it evicts
        // word 3's live entry.
        let l = t.load(11);
        assert!(l.evicted);
        assert!(
            !entry(l).flags.valid,
            "evicted slot presents as first access"
        );
        assert_eq!(t.meta_stats().capacity_evictions, 1);
        // A re-load of the same word without an intervening store does not
        // evict again (the slot no longer holds live info for it).
        store(&mut t, 11, valid_entry(2));
        assert!(!t.load(11).evicted);
    }

    #[test]
    fn injected_eviction_forgets_live_entries_and_is_counted() {
        use faults::{FaultConfig, RATE_ONE};
        let mut t = MetadataTable::new(TableConfig {
            faults: FaultConfig::disabled()
                .with_seed(7)
                .with_rate(FaultSite::MetaEviction, RATE_ONE),
            ..TableConfig::covering(64)
        });
        store(&mut t, 5, valid_entry(9));
        let l = t.load(5);
        assert!(l.evicted);
        assert!(!entry(l).flags.valid);
        let ms = t.meta_stats();
        assert_eq!(ms.injected_evictions, 1);
        assert_eq!(ms.capacity_evictions, 0);
        assert_eq!(t.fault_stats().get(FaultSite::MetaEviction), 1);
        // Every fired fault maps to exactly one MetaStats counter.
        assert_eq!(t.fault_stats().total(), ms.total_evictions());
    }

    #[test]
    fn disabled_faults_draw_nothing() {
        let mut a = table(64);
        let mut b = table(64);
        for w in 0..64u32 {
            store(&mut a, w, valid_entry(w));
            store(&mut b, w, valid_entry(w));
            assert_eq!(entry(a.load(w)), entry(b.load(w)));
        }
        assert_eq!(a.fault_stats().total(), 0);
    }
}
