//! Property tests of the channel's loss-accounting invariant under random
//! fault schedules: whatever the fault plane does to records in transit,
//! after a full drain every send is either delivered or counted lost —
//! `sent == drained + dropped` — and each fault site's fires land in its
//! dedicated [`ChannelStats`] counter.

use faults::{FaultConfig, FaultInjector, FaultSite, RATE_ONE};
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::channel::HostChannel;
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn nonzero(capacity: usize) -> NonZeroUsize {
    NonZeroUsize::new(capacity).expect("the strategies draw positive capacities")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The accounting invariant holds for every combination of buffer
    /// capacity, fault seed, per-site rates (from never to always), and
    /// traffic volume.
    #[test]
    fn sent_equals_drained_plus_dropped_under_any_fault_schedule(
        capacity in 1usize..64,
        seed in any::<u64>(),
        drop_rate in 0u32..=RATE_ONE,
        corrupt_rate in 0u32..=RATE_ONE,
        overflow_rate in 0u32..=RATE_ONE,
        sends in 0usize..300,
    ) {
        let cfg = FaultConfig::disabled()
            .with_seed(seed)
            .with_rate(FaultSite::ReportDrop, drop_rate)
            .with_rate(FaultSite::ReportCorrupt, corrupt_rate)
            .with_rate(FaultSite::ChannelOverflow, overflow_rate);
        let mut clk = Clock::new();
        let mut ch = HostChannel::with_capacity(nonzero(capacity), 1, 10, CostCategory::Misc);
        ch.set_faults(FaultInjector::new(&cfg, "prop"));
        for i in 0..sends {
            ch.send(i, &mut clk);
        }
        let survivors = ch.drain().len() as u64;
        let s = ch.stats();
        prop_assert_eq!(s.sent, sends as u64);
        prop_assert_eq!(s.sent, s.drained + s.dropped);
        prop_assert_eq!(s.drained, survivors);

        // Per-site traceability: corruption and failed flushes map 1:1
        // onto their counters; drop fires share the aggregate `dropped`
        // with corruption singles and overflow bulk losses, so the bound
        // there is one-sided.
        let f = ch.fault_stats();
        prop_assert_eq!(f.get(FaultSite::ReportCorrupt), s.corrupted);
        prop_assert_eq!(f.get(FaultSite::ChannelOverflow), s.overflow_drops);
        prop_assert!(s.dropped >= f.get(FaultSite::ReportDrop) + s.corrupted);
        prop_assert!(s.corrupted <= s.dropped);
    }

    /// A zero-rate plane is byte-invisible: same deliveries, zero losses,
    /// zero fires, regardless of its seed.
    #[test]
    fn zero_rate_plane_loses_nothing(
        seed in any::<u64>(),
        capacity in 1usize..32,
        sends in 0usize..200,
    ) {
        let cfg = FaultConfig::disabled().with_seed(seed);
        let mut clk = Clock::new();
        let mut ch = HostChannel::with_capacity(nonzero(capacity), 1, 10, CostCategory::Misc);
        ch.set_faults(FaultInjector::new(&cfg, "prop"));
        for i in 0..sends {
            ch.send(i, &mut clk);
        }
        prop_assert_eq!(ch.drain(), (0..sends).collect::<Vec<_>>());
        let s = ch.stats();
        prop_assert_eq!(s.dropped, 0);
        prop_assert_eq!(ch.fault_stats().total(), 0);
    }
}
