//! Compatibility shim for the frozen benchmark; no logic lives here.
//!
//! Address sharding is gone (DESIGN.md §12): there is one detector,
//! [`Iguard`], with one engine. `benchmark/` (frozen) still implements
//! its `Detector` trait for both `Iguard` and `ShardedIguard`, builds
//! `ShardedIguard::new(cfg, ShardConfig::inline(4))`, and names
//! `Instrumented<ShardedIguard>` as the service job closure's parameter,
//! so `ShardedIguard` stays a distinct type that forwards everything and
//! [`ShardConfig`] a field-less token. Benchmark v2 (ROADMAP `[bench-workspace]`)
//! drops that arm, and this module with it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::{Deref, DerefMut};

use gpu_sim::hook::{LaunchInfo, MemAccess, SyncEvent};
use gpu_sim::kernel::Kernel;
use gpu_sim::timing::Clock;
use nvbit_sim::Tool;

use crate::config::IguardConfig;
use crate::detector::Iguard;

/// What [`ShardedIguard::new`] takes beside the configuration; carries
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig;

impl ShardConfig {
    /// The token; the count is ignored.
    #[must_use]
    pub fn inline(_: usize) -> Self {
        ShardConfig
    }
}

/// An [`Iguard`] under the name the benchmark and the service's job
/// closure use (see module docs).
#[derive(Debug)]
pub struct ShardedIguard(Iguard);

impl ShardedIguard {
    /// [`Iguard::new`].
    #[must_use]
    pub fn new(cfg: IguardConfig, _: ShardConfig) -> Self {
        ShardedIguard(Iguard::new(cfg))
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
    fn instrument(&mut self, kernel: &Kernel) -> Vec<bool> {
        self.0.instrument(kernel)
    }

    fn body_sensitive(&self) -> bool {
        self.0.body_sensitive()
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
