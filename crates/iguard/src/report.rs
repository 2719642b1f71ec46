//! Race reporting (§5 "Race reporting").
//!
//! Detected races accumulate in a device-side buffer (1 MB in the paper)
//! that is shipped to the CPU when full or at program end — execution is
//! never stopped. Reports are deduplicated per (kernel, pc, race-kind)
//! before shipping so a racing instruction inside a hot loop does not flood
//! the channel; every dynamic occurrence is still counted.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, HashSet};
use std::num::NonZeroUsize;
use std::sync::Arc;

use faults::{FaultConfig, FaultInjector, FaultStats};
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::channel::{ChannelStats, HostChannel};

use crate::checks::{AccessType, RaceKind};

/// Serial cycles to ship one race record to the host. Shipping a race
/// record is rare, so its costs are tiny and charged to Misc as "report
/// draining".
const REPORT_SHIP_COST: u64 = 30;
/// Serial cycles per forced flush of a full race-report buffer.
const REPORT_FLUSH_COST: u64 = 2_000;

/// One reported race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceRecord {
    /// Kernel in which the racing access executed (interned name).
    pub kernel: Arc<str>,
    /// Program counter of the racing access.
    pub pc: usize,
    /// Source annotation, when the binary carries debug info.
    pub line: Option<String>,
    /// Byte address of the 4-byte word raced on.
    pub addr: u32,
    /// Race classification (Table 2 / Table 4 codes).
    pub kind: RaceKind,
    /// The current (second) access's type.
    pub access: AccessType,
    /// Current accessor identity.
    pub warp: u32,
    /// Current accessor lane.
    pub lane: u32,
    /// Current accessor block.
    pub block: u32,
    /// Previous conflicting accessor's warp (from metadata).
    pub prev_warp: u32,
    /// Previous conflicting accessor's lane.
    pub prev_lane: u32,
}

impl std::fmt::Display for RaceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} race at pc {} on 0x{:x}: warp {} lane {} (block {}) vs warp {} lane {}",
            self.kernel,
            self.kind.code(),
            self.pc,
            self.addr,
            self.warp,
            self.lane,
            self.block,
            self.prev_warp,
            self.prev_lane,
        )?;
        if let Some(line) = &self.line {
            write!(f, "  // {line}")?;
        }
        Ok(())
    }
}

/// A distinct racing program location, the unit Table 4 counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSite {
    /// Kernel name (interned).
    pub kernel: Arc<str>,
    /// Racing pc.
    pub pc: usize,
    /// All race kinds observed at this site.
    pub kinds: Vec<RaceKind>,
    /// Source annotation if available.
    pub line: Option<String>,
}

/// Accumulates, deduplicates, and ships race reports.
#[derive(Debug)]
pub struct RaceReporter {
    channel: HostChannel<RaceRecord>,
    shipped_keys: HashSet<(Arc<str>, usize, RaceKind)>,
    /// Total dynamic race occurrences (including deduplicated ones).
    pub dynamic_races: u64,
}

impl RaceReporter {
    /// A reporter whose buffer holds `capacity` records before flushing
    /// (the paper's 1 MB buffer ≈ 16 K records), with the fault plane
    /// attached to the report channel (drop / corruption / overflow
    /// injection).
    #[must_use]
    pub fn with_capacity(capacity: NonZeroUsize, faults: &FaultConfig) -> Self {
        let mut channel = HostChannel::with_capacity(
            capacity,
            REPORT_SHIP_COST,
            REPORT_FLUSH_COST,
            CostCategory::Misc,
        );
        channel.set_faults(FaultInjector::new(faults, "report-channel"));
        RaceReporter {
            channel,
            shipped_keys: HashSet::new(),
            dynamic_races: 0,
        }
    }

    /// Channel counters (sent / drained / dropped accounting).
    #[must_use]
    pub fn channel_stats(&self) -> ChannelStats {
        self.channel.stats()
    }

    /// Injected-fault counters for the report channel.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.channel.fault_stats()
    }

    /// Records one detected race.
    pub fn report(&mut self, record: RaceRecord, clock: &mut Clock) {
        self.dynamic_races += 1;
        let key = (record.kernel.clone(), record.pc, record.kind);
        if self.shipped_keys.insert(key) {
            self.channel.send(record, clock);
        }
    }

    /// Drains everything shipped so far (program end / timeout).
    pub fn drain(&mut self) -> Vec<RaceRecord> {
        self.channel.drain()
    }

    /// Unique races shipped so far, without draining.
    #[must_use]
    pub fn unique_races(&self) -> usize {
        self.shipped_keys.len()
    }
}

impl RaceSite {
    /// Canonical single-line form, the unit of the service's byte-identity
    /// contract: `kernel<TAB>pc<TAB>kind-codes<TAB>line-or-dash`. Kinds
    /// are rendered in the order the site holds them — merge through
    /// [`merge_sites`] first to get the sorted canonical order.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        let kinds: Vec<&str> = self.kinds.iter().map(RaceKind::code).collect();
        format!(
            "{}\t{}\t{}\t{}",
            self.kernel,
            self.pc,
            kinds.join(","),
            self.line.as_deref().unwrap_or("-"),
        )
    }
}

/// Idempotently merges `sites` into an accumulator keyed by (kernel, pc).
///
/// Kind sets union; kinds are kept sorted by [`RaceKind`]'s `Ord` so the
/// merged result is independent of the order batches arrive in — the
/// property that makes a tenant's verdict invariant under stream
/// interleaving and service restarts. The first observed source line wins
/// (all observations of one pc carry the same line anyway).
pub fn merge_sites(into: &mut BTreeMap<(Arc<str>, usize), RaceSite>, sites: Vec<RaceSite>) {
    for s in sites {
        let slot = into
            .entry((s.kernel.clone(), s.pc))
            .or_insert_with(|| RaceSite {
                kernel: s.kernel.clone(),
                pc: s.pc,
                kinds: Vec::new(),
                line: None,
            });
        for k in s.kinds {
            if !slot.kinds.contains(&k) {
                slot.kinds.push(k);
            }
        }
        slot.kinds.sort_unstable();
        if slot.line.is_none() {
            slot.line = s.line;
        }
    }
}

/// Groups drained records into distinct sites (kernel, pc), the unit the
/// paper's Table 4 counts races in.
#[must_use]
pub fn group_sites(records: &[RaceRecord]) -> Vec<RaceSite> {
    let mut sites: BTreeMap<(Arc<str>, usize), RaceSite> = BTreeMap::new();
    for r in records {
        let site = sites
            .entry((r.kernel.clone(), r.pc))
            .or_insert_with(|| RaceSite {
                kernel: r.kernel.clone(),
                pc: r.pc,
                kinds: Vec::new(),
                line: r.line.clone(),
            });
        if !site.kinds.contains(&r.kind) {
            site.kinds.push(r.kind);
        }
    }
    sites.into_values().collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A fault-free report channel of `capacity` records.
    fn reporter(capacity: usize) -> RaceReporter {
        RaceReporter::with_capacity(
            NonZeroUsize::new(capacity).unwrap(),
            &FaultConfig::disabled(),
        )
    }

    fn record(pc: usize, kind: RaceKind) -> RaceRecord {
        RaceRecord {
            kernel: "k".into(),
            pc,
            line: None,
            addr: 0x40,
            kind,
            access: AccessType::Store,
            warp: 1,
            lane: 2,
            block: 0,
            prev_warp: 0,
            prev_lane: 3,
        }
    }

    #[test]
    fn duplicate_races_ship_once_but_count() {
        let mut clk = Clock::new();
        let mut r = reporter(100);
        for _ in 0..50 {
            r.report(record(5, RaceKind::IntraBlock), &mut clk);
        }
        assert_eq!(r.dynamic_races, 50);
        assert_eq!(r.unique_races(), 1);
        assert_eq!(r.drain().len(), 1);
    }

    #[test]
    fn distinct_pcs_and_kinds_all_ship() {
        let mut clk = Clock::new();
        let mut r = reporter(100);
        r.report(record(5, RaceKind::IntraBlock), &mut clk);
        r.report(record(5, RaceKind::Locking), &mut clk);
        r.report(record(9, RaceKind::IntraBlock), &mut clk);
        assert_eq!(r.unique_races(), 3);
    }

    #[test]
    fn sites_group_by_pc() {
        let records = vec![
            record(5, RaceKind::IntraBlock),
            record(5, RaceKind::Locking),
            record(9, RaceKind::InterBlock),
        ];
        let sites = group_sites(&records);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].kinds.len(), 2);
    }

    #[test]
    fn display_is_informative() {
        let s = record(5, RaceKind::AtomicScope).to_string();
        assert!(s.contains("AS race"));
        assert!(s.contains("pc 5"));
    }

    #[test]
    fn merge_sites_is_order_independent_and_sorted() {
        let site = |pc: usize, kinds: Vec<RaceKind>| RaceSite {
            kernel: "k".into(),
            pc,
            kinds,
            line: None,
        };
        let a = vec![
            site(5, vec![RaceKind::Locking]),
            site(9, vec![RaceKind::IntraWarp]),
        ];
        let b = vec![site(5, vec![RaceKind::AtomicScope, RaceKind::Locking])];
        let mut ab = BTreeMap::new();
        merge_sites(&mut ab, a.clone());
        merge_sites(&mut ab, b.clone());
        let mut ba = BTreeMap::new();
        merge_sites(&mut ba, b);
        merge_sites(&mut ba, a);
        assert_eq!(ab, ba);
        let merged: Vec<RaceSite> = ab.into_values().collect();
        assert_eq!(merged.len(), 2);
        assert_eq!(
            merged[0].kinds,
            vec![RaceKind::AtomicScope, RaceKind::Locking]
        );
        assert_eq!(merged[0].canonical_line(), "k\t5\tAS,IL\t-");
    }
}
