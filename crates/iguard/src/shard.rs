//! Named handle for a multi-shard [`Iguard`].
//!
//! Address sharding is a property of the one detector
//! ([`Iguard::with_shards`]); nothing in this module detects anything.
//! It exists only because `benchmark/` (frozen) and the service's job
//! closure name a distinct `ShardedIguard` type and construct it from a
//! [`ShardConfig`]. Every method forwards to the wrapped detector.

use std::ops::{Deref, DerefMut};

use gpu_sim::hook::{LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::kernel::Kernel;
use gpu_sim::timing::Clock;
use nvbit_sim::Tool;

use crate::config::IguardConfig;
use crate::detector::Iguard;
use crate::error::IguardError;

/// Shard shape of a [`ShardedIguard`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of hashed-address shards; rounded up to a power of two,
    /// clamped to at least 1.
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::inline(4)
    }
}

impl ShardConfig {
    /// `shards` address shards, checked inline in the instrumentation
    /// callback (the only execution mode).
    #[must_use]
    pub fn inline(shards: usize) -> Self {
        ShardConfig { shards }
    }
}

/// An [`Iguard`] built from a [`ShardConfig`] (see module docs).
#[derive(Debug)]
pub struct ShardedIguard(Iguard);

impl ShardedIguard {
    /// [`Iguard::with_shards`].
    #[must_use]
    pub fn new(cfg: IguardConfig, scfg: ShardConfig) -> Self {
        ShardedIguard(Iguard::with_shards(cfg, scfg.shards))
    }

    /// [`Iguard::try_with_shards`].
    pub fn try_new(cfg: IguardConfig, scfg: ShardConfig) -> Result<Self, IguardError> {
        Iguard::try_with_shards(cfg, scfg.shards).map(ShardedIguard)
    }
}

impl Deref for ShardedIguard {
    type Target = Iguard;

    fn deref(&self) -> &Iguard {
        &self.0
    }
}

impl DerefMut for ShardedIguard {
    fn deref_mut(&mut self) -> &mut Iguard {
        &mut self.0
    }
}

impl Tool for ShardedIguard {
    fn wants_at(&mut self, kernel: &Kernel, pc: usize) -> bool {
        self.0.wants_at(kernel, pc)
    }

    fn body_sensitive(&self) -> bool {
        self.0.body_sensitive()
    }

    fn take_reinstrument(&mut self) -> bool {
        self.0.take_reinstrument()
    }

    fn at_launch(&mut self, info: &LaunchInfo, clock: &mut Clock) {
        self.0.at_launch(info, clock);
    }

    fn on_mem(&mut self, access: &MemAccess<'_>, clock: &mut Clock) {
        self.0.on_mem(access, clock);
    }

    fn on_sync(&mut self, event: &SyncEvent<'_>, clock: &mut Clock) {
        self.0.on_sync(event, clock);
    }
}
