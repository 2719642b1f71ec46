//! # faults: the deterministic fault-injection plane
//!
//! iGUARD runs *inside* the GPU it is checking: its metadata table can
//! alias under hash pressure, its 1 MB report buffer can fill mid-kernel,
//! and its instrumentation channel competes with the workload. The paper
//! treats these as benign-by-construction; a production-scale detector
//! must *measure* and *survive* them. This crate is the measurement half:
//! a seedable, fully deterministic source of injected failures that every
//! layer of the pipeline consults, with per-site accounting so that no
//! degradation is ever silent.
//!
//! ## Design
//!
//! - **Sites, not probabilities on a shared dice.** Each [`FaultSite`]
//!   owns an independent counter-based stream derived from
//!   `(seed, domain, site, draw#)` via splitmix64. Components never share
//!   an injector, so the fault schedule of one layer cannot depend on how
//!   another layer interleaves its draws — campaigns replay exactly.
//! - **Disabled is free and invisible.** A site with rate 0 consumes no
//!   draws and mutates no state; a fully disabled config short-circuits at
//!   one branch. The zero-fault configuration is byte-identical to a
//!   build without the fault plane (pinned by the golden matrix).
//! - **Everything is accounted.** Every `true` returned by
//!   [`FaultInjector::fire`] increments [`FaultStats`]; consumers pair
//!   each injection with their own degradation counter, and the chaos
//!   gate asserts the two sides reconcile.

#![forbid(unsafe_code)]

use std::fmt;

/// Where in the pipeline a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Metadata-table capacity pressure: a live entry is evicted before
    /// its next use, so the detector forgets the previous accessor.
    MetaEviction,
    /// Tag-alias storm: a metadata load observes a slot reused by a
    /// different address and must reinitialize (same observable effect as
    /// an eviction, different cause).
    MetaTagAlias,
    /// A device→host channel record is lost in transit.
    ReportDrop,
    /// A device→host channel record arrives corrupted (detected by the
    /// host consumer and discarded).
    ReportCorrupt,
    /// A full-buffer flush fails and the buffered records are lost.
    ChannelOverflow,
    /// UVM eviction storm: a resident metadata page is evicted behind the
    /// detector's back and must be migrated again.
    UvmEvictStorm,
    /// Device memory exhausted mid-prefault: the remaining metadata pages
    /// stay host-resident.
    UvmDeviceOom,
    /// The kernel hangs and the watchdog kills it mid-execution.
    KernelHang,
    /// The kernel launch aborts at the boundary (e.g. a sticky device
    /// fault from a previous context).
    KernelAbort,
    /// A checkpoint write is torn: the file is promoted but truncated at
    /// an arbitrary point, losing its trailer (and possibly records).
    CkptTornWrite,
    /// A checkpoint write lands complete but with a flipped byte, so a
    /// CRC frame fails verification on read-back.
    CkptCorruptWrite,
    /// A checkpoint write stops short before the temporary file is
    /// complete; the promote never happens and the previous generation
    /// survives untouched.
    CkptShortWrite,
}

/// Number of distinct fault sites.
pub const NUM_SITES: usize = 12;

impl FaultSite {
    /// Every site, in stable order (the [`FaultStats`] index order).
    pub const ALL: [FaultSite; NUM_SITES] = [
        FaultSite::MetaEviction,
        FaultSite::MetaTagAlias,
        FaultSite::ReportDrop,
        FaultSite::ReportCorrupt,
        FaultSite::ChannelOverflow,
        FaultSite::UvmEvictStorm,
        FaultSite::UvmDeviceOom,
        FaultSite::KernelHang,
        FaultSite::KernelAbort,
        FaultSite::CkptTornWrite,
        FaultSite::CkptCorruptWrite,
        FaultSite::CkptShortWrite,
    ];

    /// Stable index into rate/stat arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable name (CLI flags, snapshot files, reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::MetaEviction => "meta-eviction",
            FaultSite::MetaTagAlias => "meta-tag-alias",
            FaultSite::ReportDrop => "report-drop",
            FaultSite::ReportCorrupt => "report-corrupt",
            FaultSite::ChannelOverflow => "channel-overflow",
            FaultSite::UvmEvictStorm => "uvm-evict-storm",
            FaultSite::UvmDeviceOom => "uvm-device-oom",
            FaultSite::KernelHang => "kernel-hang",
            FaultSite::KernelAbort => "kernel-abort",
            FaultSite::CkptTornWrite => "ckpt-torn-write",
            FaultSite::CkptCorruptWrite => "ckpt-corrupt-write",
            FaultSite::CkptShortWrite => "ckpt-short-write",
        }
    }

    /// Parses a [`FaultSite::name`] back to the site.
    #[must_use]
    pub fn parse(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Denominator of per-site fault rates: a rate of `RATE_ONE` fires on
/// every draw.
pub const RATE_ONE: u32 = 1 << 16;

/// The fault plane's configuration: a campaign seed plus a per-site rate
/// in parts per [`RATE_ONE`]. The default is fully disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Campaign seed; all injector streams derive from it.
    pub seed: u64,
    rates: [u32; NUM_SITES],
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

impl FaultConfig {
    /// No faults anywhere (the production configuration).
    #[must_use]
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            rates: [0; NUM_SITES],
        }
    }

    /// The same rate at every site.
    #[must_use]
    pub fn uniform(seed: u64, rate_per_64k: u32) -> Self {
        FaultConfig {
            seed,
            rates: [rate_per_64k.min(RATE_ONE); NUM_SITES],
        }
    }

    /// Builder: sets one site's rate (parts per [`RATE_ONE`]).
    #[must_use]
    pub fn with_rate(mut self, site: FaultSite, rate_per_64k: u32) -> Self {
        self.rates[site.index()] = rate_per_64k.min(RATE_ONE);
        self
    }

    /// Builder: sets the campaign seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// This site's configured rate.
    #[must_use]
    pub fn rate(&self, site: FaultSite) -> u32 {
        self.rates[site.index()]
    }

    /// Whether any site can ever fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.rates.iter().any(|&r| r > 0)
    }
}

/// Per-site injection counters — the ground truth every consumer-side
/// degradation counter must reconcile against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults fired, indexed by [`FaultSite::index`].
    pub injected: [u64; NUM_SITES],
}

impl FaultStats {
    /// Faults fired at one site.
    #[must_use]
    pub fn get(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }

    /// Faults fired across all sites.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Adds another injector's counters into this one (campaign rollups).
    pub fn accumulate(&mut self, other: &FaultStats) {
        for (a, b) in self.injected.iter_mut().zip(other.injected.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for site in FaultSite::ALL {
            let n = self.get(site);
            if n > 0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{}={n}", site.name())?;
                first = false;
            }
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// One component's handle onto the fault plane.
///
/// Each consumer (a channel, a metadata table, a UVM region, a GPU launch
/// boundary) owns its own injector, created with a distinct `domain`
/// string; the per-site draw counters make every stream a pure function
/// of `(config.seed, domain, site, draw#)` — independent of thread
/// interleaving, of other components, and of how often *disabled* sites
/// are consulted.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    enabled: bool,
    seed: u64,
    domain: u64,
    rates: [u32; NUM_SITES],
    draws: [u64; NUM_SITES],
    stats: FaultStats,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

/// splitmix64: the standard 64-bit finalizing mixer (public domain,
/// Vigna). Statistically strong enough for fault scheduling and fully
/// portable.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a's 64-bit offset basis: the state [`fnv1a`] starts from.
pub const FNV1A_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a (64-bit) continued from the state `h` over `bytes`: the one
/// byte hash behind every stable identity in the workspace (fault
/// domains, job seeds, schedule and event-stream digests), portable
/// across runs and platforms. Start from [`FNV1A_BASIS`].
#[must_use]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl FaultInjector {
    /// An injector that never fires (zero branches beyond one `bool`).
    #[must_use]
    pub fn disabled() -> Self {
        FaultInjector {
            enabled: false,
            seed: 0,
            domain: 0,
            rates: [0; NUM_SITES],
            draws: [0; NUM_SITES],
            stats: FaultStats::default(),
        }
    }

    /// An injector for one component. `domain` names the component
    /// ("report-channel", "metadata", ...), isolating its streams from
    /// every other component's.
    #[must_use]
    pub fn new(cfg: &FaultConfig, domain: &str) -> Self {
        FaultInjector {
            enabled: cfg.enabled(),
            seed: cfg.seed,
            domain: fnv1a(FNV1A_BASIS, domain.as_bytes()),
            rates: {
                let mut r = [0u32; NUM_SITES];
                for site in FaultSite::ALL {
                    r[site.index()] = cfg.rate(site);
                }
                r
            },
            draws: [0; NUM_SITES],
            stats: FaultStats::default(),
        }
    }

    /// Whether any site of this injector can ever fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The raw hash for this site's next draw (also consumed by
    /// [`FaultInjector::fire`] / [`FaultInjector::draw`]).
    fn next_hash(&mut self, site: FaultSite) -> u64 {
        let i = site.index();
        let n = self.draws[i];
        self.draws[i] += 1;
        splitmix64(
            self.seed ^ self.domain ^ (n.wrapping_mul(0xA24B_AED4_963E_E407)) ^ ((i as u64) << 56),
        )
    }

    /// One Bernoulli draw at `site`'s configured rate. Counts the
    /// injection when it fires. A rate-0 site returns `false` without
    /// consuming a draw, so disabling a site never shifts another's
    /// stream.
    pub fn fire(&mut self, site: FaultSite) -> bool {
        if !self.enabled || self.rates[site.index()] == 0 {
            return false;
        }
        let h = self.next_hash(site);
        let fired = ((h & 0xFFFF) as u32) < self.rates[site.index()];
        if fired {
            self.stats.injected[site.index()] += 1;
        }
        fired
    }

    /// A deterministic magnitude in `1..=bound` from `site`'s stream
    /// (storm sizes, hang points). Consumes one draw; does not count an
    /// injection.
    pub fn draw(&mut self, site: FaultSite, bound: u64) -> u64 {
        let h = self.next_hash(site);
        1 + h % bound.max(1)
    }

    /// Injection counters so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(cfg: &FaultConfig, domain: &str, site: FaultSite, n: usize) -> Vec<bool> {
        let mut inj = FaultInjector::new(cfg, domain);
        (0..n).map(|_| inj.fire(site)).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = FaultConfig::uniform(7, RATE_ONE / 4);
        assert_eq!(
            stream(&cfg, "chan", FaultSite::ReportDrop, 256),
            stream(&cfg, "chan", FaultSite::ReportDrop, 256),
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultConfig::uniform(1, RATE_ONE / 4);
        let b = FaultConfig::uniform(2, RATE_ONE / 4);
        assert_ne!(
            stream(&a, "chan", FaultSite::ReportDrop, 256),
            stream(&b, "chan", FaultSite::ReportDrop, 256),
        );
    }

    #[test]
    fn domains_are_independent() {
        let cfg = FaultConfig::uniform(7, RATE_ONE / 4);
        assert_ne!(
            stream(&cfg, "chan", FaultSite::ReportDrop, 256),
            stream(&cfg, "metadata", FaultSite::ReportDrop, 256),
        );
    }

    #[test]
    fn sites_are_independent_streams() {
        let cfg = FaultConfig::uniform(7, RATE_ONE / 4);
        // Interleaving a second site's draws must not perturb the first's.
        let mut a = FaultInjector::new(&cfg, "chan");
        let solo: Vec<bool> = (0..64).map(|_| a.fire(FaultSite::ReportDrop)).collect();
        let mut b = FaultInjector::new(&cfg, "chan");
        let interleaved: Vec<bool> = (0..64)
            .map(|_| {
                let _ = b.fire(FaultSite::ReportCorrupt);
                b.fire(FaultSite::ReportDrop)
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn disabled_never_fires_and_counts_nothing() {
        let mut inj = FaultInjector::new(&FaultConfig::disabled(), "x");
        for _ in 0..1000 {
            assert!(!inj.fire(FaultSite::KernelAbort));
        }
        assert_eq!(inj.stats().total(), 0);
        assert!(!inj.enabled());
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let cfg = FaultConfig::disabled()
            .with_seed(3)
            .with_rate(FaultSite::MetaEviction, RATE_ONE);
        let mut inj = FaultInjector::new(&cfg, "meta");
        for _ in 0..100 {
            assert!(inj.fire(FaultSite::MetaEviction));
            assert!(!inj.fire(FaultSite::MetaTagAlias));
        }
        assert_eq!(inj.stats().get(FaultSite::MetaEviction), 100);
        assert_eq!(inj.stats().get(FaultSite::MetaTagAlias), 0);
        assert_eq!(inj.stats().total(), 100);
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let cfg = FaultConfig::uniform(11, RATE_ONE / 8); // 12.5 %
        let fired = stream(&cfg, "chan", FaultSite::ReportDrop, 10_000)
            .iter()
            .filter(|&&f| f)
            .count();
        assert!(
            (800..1700).contains(&fired),
            "12.5 % rate produced {fired}/10000"
        );
    }

    #[test]
    fn draw_is_deterministic_and_bounded() {
        let cfg = FaultConfig::uniform(5, RATE_ONE);
        let mut a = FaultInjector::new(&cfg, "launch");
        let mut b = FaultInjector::new(&cfg, "launch");
        for bound in [1u64, 7, 1000] {
            let x = a.draw(FaultSite::KernelHang, bound);
            assert_eq!(x, b.draw(FaultSite::KernelHang, bound));
            assert!((1..=bound).contains(&x));
        }
    }

    #[test]
    fn write_side_sites_are_independent_and_invisible_at_rate_zero() {
        // The three checkpoint write-side sites each own a stream; arming
        // them must not shift any pre-existing site's stream, and a rate-0
        // write-side site consumes no draws.
        let base = FaultConfig::uniform(9, RATE_ONE / 4);
        let armed = base
            .clone()
            .with_rate(FaultSite::CkptTornWrite, RATE_ONE / 2)
            .with_rate(FaultSite::CkptCorruptWrite, RATE_ONE / 2)
            .with_rate(FaultSite::CkptShortWrite, RATE_ONE / 2);
        assert_eq!(
            stream(&base, "store", FaultSite::ReportDrop, 256),
            stream(&armed, "store", FaultSite::ReportDrop, 256),
        );
        for site in [
            FaultSite::CkptTornWrite,
            FaultSite::CkptCorruptWrite,
            FaultSite::CkptShortWrite,
        ] {
            // Deterministic per-site stream, distinct across the three.
            assert_eq!(
                stream(&armed, "store", site, 128),
                stream(&armed, "store", site, 128),
            );
            let mut inj = FaultInjector::new(&base.clone().with_rate(site, 0), "store");
            for _ in 0..100 {
                assert!(!inj.fire(site));
            }
            assert_eq!(inj.stats().get(site), 0);
        }
        assert_ne!(
            stream(&armed, "store", FaultSite::CkptTornWrite, 128),
            stream(&armed, "store", FaultSite::CkptCorruptWrite, 128),
        );
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("nope"), None);
    }

    #[test]
    fn stats_display_lists_nonzero_sites() {
        let mut s = FaultStats::default();
        assert_eq!(s.to_string(), "none");
        s.injected[FaultSite::ReportDrop.index()] = 3;
        assert_eq!(s.to_string(), "report-drop=3");
    }

    #[test]
    fn accumulate_sums_per_site() {
        let mut a = FaultStats::default();
        let mut b = FaultStats::default();
        a.injected[0] = 2;
        b.injected[0] = 3;
        b.injected[8] = 1;
        a.accumulate(&b);
        assert_eq!(a.injected[0], 5);
        assert_eq!(a.injected[8], 1);
        assert_eq!(a.total(), 6);
    }
}
