//! Property tests of metadata-table degradation accounting under random
//! fault schedules: every load that loses its previous-accessor
//! information — to genuine capacity pressure, an injected eviction, or
//! an injected tag alias — is exactly what the detector mirrors into its
//! missed-check counter, and every fired metadata fault lands in exactly
//! one [`MetaStats`] counter.

use faults::{FaultConfig, FaultSite, RATE_ONE};
use iguard::bitfield::{AccessorInfo, Flags, MetadataEntry};
use iguard::metadata::{MetadataTable, TableConfig};
use proptest::prelude::*;

/// Stores a live entry last accessed by `warp` at `word`.
fn store_live(t: &mut MetadataTable, word: u32, warp: u32) {
    let (acc, wr) = MetadataEntry {
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
    .pack();
    t.store(word, acc, wr);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any fault schedule, capacity cap, and access pattern: the
    /// number of evicted loads (what `Iguard::process_split` counts as
    /// missed checks) equals `MetaStats::total_evictions()`, and the
    /// injected counters equal the fault plane's own fire counts — no
    /// degradation is silent, none is double-counted.
    #[test]
    fn every_injected_eviction_is_an_accounted_missed_check(
        seed in any::<u64>(),
        evict_rate in 0u32..=RATE_ONE,
        alias_rate in 0u32..=RATE_ONE,
        cap_pow in 3u32..7,
        words in prop::collection::vec(0u32..256, 0..400),
    ) {
        let mut t = MetadataTable::new(TableConfig {
            capacity_words: Some(1usize << cap_pow),
            faults: FaultConfig::disabled()
                .with_seed(seed)
                .with_rate(FaultSite::MetaEviction, evict_rate)
                .with_rate(FaultSite::MetaTagAlias, alias_rate),
            ..TableConfig::covering(256)
        });

        // Mirror the detector: count each evicted load, store a live
        // entry back (so slot contention produces capacity evictions).
        let mut missed_checks = 0u64;
        for w in words {
            let load = t.load(w);
            missed_checks += u64::from(load.evicted);
            store_live(&mut t, w, w);
        }

        let ms = t.meta_stats();
        prop_assert_eq!(missed_checks, ms.total_evictions());
        let fired = t.fault_stats();
        prop_assert_eq!(fired.get(FaultSite::MetaEviction), ms.injected_evictions);
        prop_assert_eq!(fired.get(FaultSite::MetaTagAlias), ms.injected_aliases);
    }

    /// A zero-rate plane never evicts and never fires, whatever its seed:
    /// a full-capacity table under the compiled-in-but-disabled plane
    /// behaves exactly like one with no plane at all.
    #[test]
    fn zero_rate_plane_never_evicts(
        seed in any::<u64>(),
        words in prop::collection::vec(0u32..64, 0..200),
    ) {
        let mut plain = MetadataTable::new(TableConfig::covering(64));
        let mut planed = MetadataTable::new(TableConfig {
            faults: FaultConfig::disabled().with_seed(seed),
            ..TableConfig::covering(64)
        });
        for w in words {
            let a = plain.load(w);
            let b = planed.load(w);
            prop_assert_eq!((a.acc, a.wr), (b.acc, b.wr));
            prop_assert!(!b.evicted);
            store_live(&mut plain, w, w);
            store_live(&mut planed, w, w);
        }
        prop_assert_eq!(planed.meta_stats().total_evictions(), 0);
        prop_assert_eq!(planed.fault_stats().total(), 0);
    }
}
