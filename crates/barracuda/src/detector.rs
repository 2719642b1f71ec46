//! The Barracuda tool: GPU-side logging, CPU-side detection.
//!
//! Faithful to the architecture (and architectural limitations) the paper
//! describes in §4 and §7:
//!
//! - every instrumented event pays a **serial** shipping charge into the
//!   host channel (the device-side ring-buffer slot reservation is a
//!   device-wide serialization point) and a **serial** CPU processing
//!   charge (one consumer thread);
//! - **memory reservation**: buffers claim 50 % of device capacity plus a
//!   footprint-proportional shadow — the policy that runs out of memory in
//!   Figure 14 where iGUARD's UVM approach degrades gracefully;
//! - **feature gate**: binaries containing scoped (`_block`) atomics or
//!   `__syncwarp` are rejected before execution, and "multi-file" binaries
//!   (real-world libraries like Gunrock) cannot have their PTX embedded —
//!   see [`crate::supports`];
//! - same-warp accesses are assumed lockstep-ordered (SM35), so ITS races
//!   are invisible to it.

use std::num::NonZeroUsize;

use gpu_sim::hook::{AccessKind, LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::ir::Scope;
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::channel::HostChannel;
use nvbit_sim::Tool;

use crate::event::Event;
use crate::hb::{CpuRace, HbDetector};

/// Serial cycles to reserve a channel slot and ship one record.
const SHIP_COST: u64 = 34;
/// Serial cycles for the CPU to process one record.
const CPU_COST: u64 = 40;
/// Serial cycles per forced channel flush.
const FLUSH_COST: u64 = 1_500;
/// Channel capacity in events before a forced flush.
const CHANNEL_CAPACITY: NonZeroUsize = NonZeroUsize::new(1 << 16).unwrap();
/// Fraction of device memory reserved for buffers (the paper: "prior
/// works, e.g., Barracuda reserves 50% of the memory capacity").
const RESERVE_FRACTION: f64 = 0.5;
/// Serial cycles to pin the metadata buffers, charged at every launch.
const SETUP_COST: u64 = 1_000;

/// The baseline's one setting, its CPU budget; its costs are the fixed
/// constants above.
#[derive(Debug, Clone)]
pub struct BarracudaConfig {
    /// Serial-cycle budget after which the run is declared non-terminating
    /// (the paper's `interac` case).
    pub timeout_serial_cycles: u64,
}

impl Default for BarracudaConfig {
    fn default() -> Self {
        BarracudaConfig {
            timeout_serial_cycles: u64::MAX,
        }
    }
}

/// Why Barracuda could not produce results for a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarracudaFailure {
    /// Device memory could not fit the 50 % reservation + shadow buffers.
    OutOfMemory {
        /// Bytes the reservation needed.
        needed: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// The event stream exceeded the serial-processing budget.
    DidNotTerminate,
}

/// The Barracuda detector tool.
#[derive(Debug)]
pub struct Barracuda {
    cfg: BarracudaConfig,
    /// Events tagged with their *record* id — one record per instrumented
    /// warp split (Barracuda ships compact per-warp records; lanes of one
    /// split share a ring-buffer slot).
    channel: HostChannel<(u64, Event)>,
    hb: Option<HbDetector>,
    block_dim: u32,
    kernel_name: std::sync::Arc<str>,
    failure: Option<BarracudaFailure>,
    serial_shipped: u64,
    events_sent: u64,
    records_sent: u64,
    records_processed: u64,
    last_record_seen: Option<u64>,
    races: Vec<CpuRace>,
}

impl Default for Barracuda {
    fn default() -> Self {
        Self::new(BarracudaConfig::default())
    }
}

impl Barracuda {
    /// Creates the baseline detector.
    #[must_use]
    pub fn new(cfg: BarracudaConfig) -> Self {
        // Per-record shipping cost is charged explicitly in `record()`;
        // the channel itself only charges forced flushes.
        let channel =
            HostChannel::with_capacity(CHANNEL_CAPACITY, 0, FLUSH_COST, CostCategory::Detection);
        Barracuda {
            cfg,
            channel,
            hb: None,
            block_dim: 0,
            kernel_name: std::sync::Arc::from(""),
            failure: None,
            serial_shipped: 0,
            events_sent: 0,
            records_sent: 0,
            records_processed: 0,
            last_record_seen: None,
            races: Vec::new(),
        }
    }

    /// Whether (and why) the run failed.
    #[must_use]
    pub fn failure(&self) -> Option<&BarracudaFailure> {
        self.failure.as_ref()
    }

    /// Events shipped so far.
    #[must_use]
    pub fn events_sent(&self) -> u64 {
        self.events_sent
    }

    /// Drains the channel and runs the CPU-side analysis on the pending
    /// events against the *current kernel's* happens-before state.
    ///
    /// Charges the serialized CPU analysis cost to `clock`; when the
    /// cumulative budget is exceeded the run is marked
    /// [`BarracudaFailure::DidNotTerminate`] and later events are dropped
    /// (the paper: Barracuda "did not terminate for interac ... and misses
    /// a true race").
    fn drain_and_process(&mut self, clock: &mut Clock) {
        let events = self.channel.drain();
        let Some(hb) = self.hb.as_mut() else {
            return;
        };
        let budget_records = self.cfg.timeout_serial_cycles / CPU_COST;
        let before = hb.races().len();
        let mut processed_now = 0u64;
        for (record, ev) in &events {
            if self.last_record_seen != Some(*record) {
                self.last_record_seen = Some(*record);
                self.records_processed += 1;
                processed_now += 1;
            }
            if self.records_processed > budget_records {
                self.failure = Some(BarracudaFailure::DidNotTerminate);
                break;
            }
            hb.process(ev);
        }
        clock.charge_serial(CostCategory::Detection, processed_now * CPU_COST);
        let new_races = hb.races()[before.min(hb.races().len())..].to_vec();
        self.races.extend(new_races);
    }

    /// Finishes CPU-side processing and returns every race found so far.
    pub fn finish(&mut self, clock: &mut Clock) -> Vec<CpuRace> {
        self.drain_and_process(clock);
        self.races.clone()
    }

    /// Opens a new per-split record and charges its serialized shipping.
    fn record(&mut self, clock: &mut Clock) -> u64 {
        self.records_sent += 1;
        self.serial_shipped += SHIP_COST;
        clock.charge_serial(CostCategory::Detection, SHIP_COST);
        self.records_sent
    }

    fn ship(&mut self, record: u64, ev: Event, clock: &mut Clock) {
        self.events_sent += 1;
        self.channel.send((record, ev), clock);
    }

    fn global_tid(&self, block_id: u32, tid_in_block: u32) -> u32 {
        block_id * self.block_dim + tid_in_block
    }
}

impl Tool for Barracuda {
    fn at_launch(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        // Analyze any events still pending from the previous kernel before
        // resetting the happens-before state (each launch gets fresh state:
        // the implicit inter-kernel barrier orders everything).
        self.drain_and_process(clock);
        self.block_dim = info.block_dim;
        self.kernel_name = info.kernel_name.clone();
        self.hb = Some(HbDetector::new(info.grid_dim, info.block_dim));

        // Reservation policy: 50 % of capacity for buffers plus a shadow
        // proportional to the application footprint.
        let needed = (info.device_capacity_bytes as f64 * RESERVE_FRACTION) as u64
            + 2 * info.app_footprint_bytes;
        if needed > info.device_capacity_bytes {
            self.failure = Some(BarracudaFailure::OutOfMemory {
                needed,
                capacity: info.device_capacity_bytes,
            });
        }
        // Metadata buffers are pinned eagerly: a fixed setup charge.
        clock.charge_serial(CostCategory::Setup, SETUP_COST);
    }

    fn at_exit(&mut self, _info: &LaunchInfo, clock: &mut Clock) {
        self.drain_and_process(clock);
    }

    fn on_mem(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        if self.failure.is_some() || access.space != gpu_sim::ir::Space::Global {
            // Shared-memory detection is disabled for the comparison, as
            // the paper does ("we disable shared memory race detection in
            // Barracuda since iGUARD focuses only on global memory", §7).
            return;
        }
        // Volatile accesses are word-atomic flag-protocol traffic; model
        // them as relaxed atomics (Barracuda "fully supports atomics", §4,
        // and reports no false positives on spin-flag idioms).
        let (is_write, is_atomic) = match access.kind {
            AccessKind::Load => (false, access.volatile),
            AccessKind::Store => (true, access.volatile),
            AccessKind::Atomic { .. } => (true, true),
        };
        let block_id = access.block_id;
        let pc = access.pc;
        let warp = access.global_warp;
        let lanes: Vec<(u32, u32)> = access
            .lanes
            .iter()
            .map(|l| (l.tid_in_block, l.addr))
            .collect();
        let record = self.record(clock);
        for (tid_in_block, addr) in lanes {
            let ev = Event::Access {
                word: addr / 4,
                tid: self.global_tid(block_id, tid_in_block),
                warp,
                is_write,
                is_atomic,
                pc,
            };
            self.ship(record, ev, clock);
        }
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, clock: &mut Clock) {
        if self.failure.is_some() {
            return;
        }
        match event {
            SyncEvent::BlockBarrier { block_id } => {
                let record = self.record(clock);
                self.ship(record, Event::BlockBarrier { block: *block_id }, clock);
            }
            SyncEvent::WarpBarrier { .. } => {
                // Barracuda has no notion of warp-level barriers (§4); the
                // event is dropped, exactly the blind spot Table 1 lists.
            }
            SyncEvent::Fence {
                scope,
                block_id,
                tids,
                ..
            } => {
                let device_scope = *scope == Scope::Device;
                let pairs: Vec<u32> = tids.iter().map(|&(_, tid)| tid).collect();
                let record = self.record(clock);
                for tid_in_block in pairs {
                    let ev = Event::Fence {
                        tid: self.global_tid(*block_id, tid_in_block),
                        device_scope,
                    };
                    self.ship(record, ev, clock);
                }
            }
        }
    }
}
