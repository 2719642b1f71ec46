//! Device→host communication channel.
//!
//! NVBit tools ship records from injected device code to a host-side
//! consumer through a pinned-memory channel. The *cost structure* of that
//! channel is what separates the two detectors in this reproduction:
//!
//! - **Barracuda** ships *every* memory/synchronization event and performs
//!   detection on the CPU — each record pays a serial (critical-path)
//!   shipping charge, because the host consumer is one thread and the
//!   device-side producers must serialize into the ring buffer. This is the
//!   paper's explanation for Barracuda's 10–1000× overheads (§4).
//! - **iGUARD** ships only *race reports* (a 1 MB buffer drained when full
//!   or at kernel end, §5 "Race reporting"), so channel cost is negligible
//!   unless a program races pathologically.
//!
//! The channel is also a fault-plane consumer: under an enabled
//! [`FaultInjector`] individual records can be dropped or corrupted in
//! transit, and a full-buffer flush can fail wholesale. Every lost record
//! lands in a [`ChannelStats`] counter, preserving the accounting
//! invariant `sent == drained + dropped` once the channel is fully
//! drained.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::num::NonZeroUsize;

use faults::{FaultInjector, FaultSite, FaultStats};
use gpu_sim::timing::{Clock, CostCategory};

/// A structurally invalid channel configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The buffer must hold at least one record.
    ZeroCapacity,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::ZeroCapacity => write!(f, "channel capacity must be positive"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Send attempts by device-side code (including records later lost).
    pub sent: u64,
    /// Records consumed by the host side.
    pub drained: u64,
    /// Times the buffer filled and forced a synchronous flush.
    pub full_flushes: u64,
    /// Records lost in transit (drops, corruption, failed flushes).
    /// Invariant once fully drained: `sent == drained + dropped`.
    pub dropped: u64,
    /// Of `dropped`: records that arrived corrupted and were discarded by
    /// the host consumer.
    pub corrupted: u64,
    /// Full-buffer flushes that failed and lost their entire buffer.
    pub overflow_drops: u64,
}

impl ChannelStats {
    /// Field-wise sum. The accounting invariant survives summation: if
    /// `sent == drained + dropped` holds for each summand it holds for
    /// the total, so a fleet of fully-drained channels is
    /// fully accounted iff each member is.
    pub fn accumulate(&mut self, other: &ChannelStats) {
        let ChannelStats {
            sent,
            drained,
            full_flushes,
            dropped,
            corrupted,
            overflow_drops,
        } = *other;
        self.sent += sent;
        self.drained += drained;
        self.full_flushes += full_flushes;
        self.dropped += dropped;
        self.corrupted += corrupted;
        self.overflow_drops += overflow_drops;
    }
}

/// A bounded device→host record channel with per-record serial cost.
#[derive(Debug)]
pub struct HostChannel<T> {
    buf: Vec<T>,
    capacity: usize,
    ship_cost: u64,
    flush_cost: u64,
    category: CostCategory,
    stats: ChannelStats,
    drained: Vec<T>,
    faults: FaultInjector,
}

impl<T> HostChannel<T> {
    /// A channel holding up to `capacity` records before it must flush.
    ///
    /// `ship_cost` is charged serially per record (ring-buffer slot
    /// reservation is a device-wide atomic); `flush_cost` is charged
    /// serially per forced flush (host round-trip).
    pub fn new(
        capacity: usize,
        ship_cost: u64,
        flush_cost: u64,
        category: CostCategory,
    ) -> Result<Self, ChannelError> {
        let capacity = NonZeroUsize::new(capacity).ok_or(ChannelError::ZeroCapacity)?;
        Ok(HostChannel::with_capacity(
            capacity, ship_cost, flush_cost, category,
        ))
    }

    /// [`HostChannel::new`] for a capacity already known to be positive.
    #[must_use]
    pub fn with_capacity(
        capacity: NonZeroUsize,
        ship_cost: u64,
        flush_cost: u64,
        category: CostCategory,
    ) -> Self {
        let capacity = capacity.get();
        HostChannel {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            ship_cost,
            flush_cost,
            category,
            stats: ChannelStats::default(),
            drained: Vec::new(),
            faults: FaultInjector::disabled(),
        }
    }

    /// Attaches a fault injector (replacing the default disabled one).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Ships one record, charging its costs to `clock`.
    ///
    /// Under injected faults the record can be lost in transit (dropped or
    /// corrupted — either way it never reaches the buffer and is counted
    /// in [`ChannelStats::dropped`]), and a forced flush can fail and lose
    /// the whole buffer.
    pub fn send(&mut self, record: T, clock: &mut Clock) {
        clock.charge_serial(self.category, self.ship_cost);
        self.stats.sent += 1;
        if self.faults.enabled() {
            if self.faults.fire(FaultSite::ReportCorrupt) {
                // Arrived mangled; the host consumer discards it.
                self.stats.corrupted += 1;
                self.stats.dropped += 1;
                return;
            }
            if self.faults.fire(FaultSite::ReportDrop) {
                self.stats.dropped += 1;
                return;
            }
        }
        self.buf.push(record);
        if self.buf.len() >= self.capacity {
            self.stats.full_flushes += 1;
            clock.charge_serial(self.category, self.flush_cost);
            if self.faults.enabled() && self.faults.fire(FaultSite::ChannelOverflow) {
                // The flush failed mid-transfer: everything buffered is lost.
                self.stats.overflow_drops += 1;
                self.stats.dropped += self.buf.len() as u64;
                self.buf.clear();
            } else {
                self.drain_internal();
            }
        }
    }

    fn drain_internal(&mut self) {
        self.stats.drained += self.buf.len() as u64;
        self.drained.append(&mut self.buf);
    }

    /// Host-side drain (kernel end / program exit): returns everything
    /// shipped so far, in order.
    pub fn drain(&mut self) -> Vec<T> {
        self.drain_internal();
        std::mem::take(&mut self.drained)
    }

    /// Records currently waiting in the device-side buffer.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Channel counters.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Injected-fault counters for this channel.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use faults::{FaultConfig, RATE_ONE};

    #[test]
    fn records_arrive_in_order() {
        let mut clk = Clock::new();
        let mut ch = HostChannel::new(100, 5, 50, CostCategory::Misc).unwrap();
        for i in 0..10 {
            ch.send(i, &mut clk);
        }
        assert_eq!(ch.drain(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ship_cost_is_serial_per_record() {
        let mut clk = Clock::new();
        clk.set_parallelism(1000.0);
        let mut ch = HostChannel::new(1000, 7, 0, CostCategory::Detection).unwrap();
        for i in 0..100 {
            ch.send(i, &mut clk);
        }
        // 100 records × 7 cycles, unamortized by parallelism.
        assert!((clk.time(CostCategory::Detection) - 700.0).abs() < 1e-9);
    }

    #[test]
    fn full_buffer_forces_flush() {
        let mut clk = Clock::new();
        let mut ch = HostChannel::new(4, 1, 100, CostCategory::Misc).unwrap();
        for i in 0..9 {
            ch.send(i, &mut clk);
        }
        assert_eq!(ch.stats().full_flushes, 2);
        assert_eq!(ch.pending(), 1);
        let all = ch.drain();
        assert_eq!(all.len(), 9);
        assert_eq!(ch.stats().drained, 9);
    }

    #[test]
    fn zero_capacity_rejected() {
        let err = HostChannel::<u32>::new(0, 1, 1, CostCategory::Misc).unwrap_err();
        assert_eq!(err, ChannelError::ZeroCapacity);
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    fn certain_drop_loses_every_record_with_accounting() {
        let mut clk = Clock::new();
        let mut ch = HostChannel::new(8, 1, 10, CostCategory::Misc).unwrap();
        let cfg = FaultConfig::disabled()
            .with_seed(9)
            .with_rate(FaultSite::ReportDrop, RATE_ONE);
        ch.set_faults(FaultInjector::new(&cfg, "test"));
        for i in 0..20 {
            ch.send(i, &mut clk);
        }
        assert!(ch.drain().is_empty());
        let s = ch.stats();
        assert_eq!((s.sent, s.drained, s.dropped), (20, 0, 20));
        assert_eq!(s.sent, s.drained + s.dropped);
        assert_eq!(ch.fault_stats().get(FaultSite::ReportDrop), 20);
    }

    #[test]
    fn overflow_fault_loses_the_buffered_batch() {
        let mut clk = Clock::new();
        let mut ch = HostChannel::new(4, 1, 10, CostCategory::Misc).unwrap();
        let cfg = FaultConfig::disabled()
            .with_seed(9)
            .with_rate(FaultSite::ChannelOverflow, RATE_ONE);
        ch.set_faults(FaultInjector::new(&cfg, "test"));
        for i in 0..10 {
            ch.send(i, &mut clk);
        }
        // Two forced flushes, both failed: 8 records lost, 2 still pending.
        let s = ch.stats();
        assert_eq!(s.overflow_drops, 2);
        assert_eq!(s.dropped, 8);
        assert_eq!(ch.drain(), vec![8, 9]);
        let s = ch.stats();
        assert_eq!(s.sent, s.drained + s.dropped);
    }

    #[test]
    fn corruption_counts_inside_dropped() {
        let mut clk = Clock::new();
        let mut ch = HostChannel::new(64, 1, 10, CostCategory::Misc).unwrap();
        let cfg = FaultConfig::disabled()
            .with_seed(3)
            .with_rate(FaultSite::ReportCorrupt, RATE_ONE / 2);
        ch.set_faults(FaultInjector::new(&cfg, "test"));
        for i in 0..50 {
            ch.send(i, &mut clk);
        }
        let survivors = ch.drain().len() as u64;
        let s = ch.stats();
        assert!(s.corrupted > 0);
        assert_eq!(s.corrupted, s.dropped);
        assert_eq!(s.sent, survivors + s.dropped);
    }

    #[test]
    fn stats_accumulate_is_fieldwise() {
        let mut a = ChannelStats {
            sent: 10,
            drained: 7,
            full_flushes: 1,
            dropped: 3,
            corrupted: 2,
            overflow_drops: 1,
        };
        let b = ChannelStats {
            sent: 5,
            drained: 5,
            ..ChannelStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.sent, 15);
        assert_eq!(a.drained, 12);
        assert_eq!(a.sent, a.drained + a.dropped);
    }
}
