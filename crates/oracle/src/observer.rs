//! A minimal hook recording the dynamic global-memory access sequence.
//!
//! The oracle attaches this directly to the GPU (no NVBit layer, no
//! detector): ground truth needs the *order of accesses*, nothing else.
//! Scheduling decisions never depend on attached hooks — hooks only charge
//! the clock — so a schedule trace recorded under the observer replays
//! identically under `Instrumented<Iguard>` or any other tool.

use faults::{fnv1a, FNV1A_BASIS};
use gpu_sim::hook::{AccessKind, Hook, MemAccess};
use gpu_sim::ir::Scope;
use gpu_sim::timing::Clock;

/// One dynamic global-memory access by one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedAccess {
    pub block: u32,
    pub tid_in_block: u32,
    /// Byte address of the accessed word.
    pub addr: u32,
    pub pc: usize,
    pub is_write: bool,
    pub is_atomic: bool,
    /// Atomic scope, when the access is an atomic.
    pub scope: Option<Scope>,
    /// Scheduler step of the access (equal steps ⇒ same warp split ⇒
    /// simultaneous execution).
    pub step: u64,
}

/// One dynamic plain load together with the value the lane observed. Only
/// recorded when the launch runs with `GpuConfig::record_load_values` (or
/// weak visibility, which implies it); under the default config the
/// callback never fires and `loads` stays empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedLoad {
    pub block: u32,
    pub tid_in_block: u32,
    pub addr: u32,
    pub pc: usize,
    pub value: u32,
}

/// Records every global access of a launch in execution order.
#[derive(Debug, Default)]
pub struct Observer {
    pub events: Vec<ObservedAccess>,
    /// Observed load values, in execution order (litmus runs only; the
    /// k-th plain-load entry of `events` pairs with `loads[k]`).
    pub loads: Vec<ObservedLoad>,
}

impl Observer {
    /// FNV-1a digest over the event stream: a cheap determinism witness
    /// for replay tests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A_BASIS;
        let mut eat = |v: u64| h = fnv1a(h, &v.to_le_bytes());
        for e in &self.events {
            eat(u64::from(e.block));
            eat(u64::from(e.tid_in_block));
            eat(u64::from(e.addr));
            eat(e.pc as u64);
            eat(u64::from(e.is_write) | (u64::from(e.is_atomic) << 1));
        }
        h
    }
}

impl Hook for Observer {
    fn on_load_value(
        &mut self,
        block_id: u32,
        tid_in_block: u32,
        addr: u32,
        pc: usize,
        value: u32,
    ) {
        self.loads.push(ObservedLoad {
            block: block_id,
            tid_in_block,
            addr,
            pc,
            value,
        });
    }

    fn on_mem_access(&mut self, access: &MemAccess<'_>, _clock: &mut Clock) {
        let (is_write, is_atomic, scope) = match access.kind {
            AccessKind::Load => (false, false, None),
            AccessKind::Store => (true, false, None),
            AccessKind::Atomic { scope, .. } => (true, true, Some(scope)),
        };
        for lane in access.lanes {
            self.events.push(ObservedAccess {
                block: access.block_id,
                tid_in_block: lane.tid_in_block,
                addr: lane.addr,
                pc: access.pc,
                is_write,
                is_atomic,
                scope,
                step: access.step,
            });
        }
    }
}
