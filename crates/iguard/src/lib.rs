//! # iguard: the paper's core contribution
//!
//! A Rust reproduction of **iGUARD: In-GPU Advanced Race Detection**
//! (Kamath & Basu, SOSP 2021) over the `gpu-sim` substrate. The detector is
//! an `nvbit-sim` instrumentation tool that detects global-memory races
//! caused by the advanced programming features of modern GPUs:
//!
//! - **scoped synchronization** — under-scoped atomics and fences (AS/BR/DR
//!   races),
//! - **Independent Thread Scheduling** — missing `__syncwarp` (ITS races),
//! - **Cooperative Groups** — wrong-granularity group sync (detected
//!   automatically through the constituent fences/atomics/barriers, §6.4),
//! - **inferred locks** — guidebook `atomicCAS`+fence / fence+`atomicExch`
//!   idioms with per-warp *or* per-thread protocols, checked by lockset
//!   (IL races).
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::prelude::*;
//! use nvbit_sim::Instrumented;
//! use iguard::Iguard;
//!
//! // A racy kernel: lane 1 stores, lane 0 loads with no __syncwarp.
//! let mut b = KernelBuilder::new("racy");
//! let tid = b.special(Special::Tid);
//! let base = b.param(0);
//! let is1 = b.eq(tid, 1u32);
//! let skip = b.fwd_label();
//! b.bra_ifnot(is1, skip);
//! let v = b.imm(7);
//! b.st(base, 1, v);
//! b.bind(skip);
//! let is0 = b.eq(tid, 0u32);
//! let done = b.fwd_label();
//! b.bra_ifnot(is0, done);
//! let got = b.ld(base, 1);
//! b.st(base, 0, got);
//! b.bind(done);
//! let kernel = b.build();
//!
//! let mut gpu = Gpu::new(GpuConfig::default());
//! let buf = gpu.alloc(4).unwrap();
//! let mut tool = Instrumented::new(Iguard::default());
//! gpu.launch(&kernel, 1, 32, &[buf], &mut tool).unwrap();
//! let races = tool.tool_mut().races();
//! assert!(races.iter().any(|r| r.kind == iguard::RaceKind::IntraWarp));
//! ```

#![forbid(unsafe_code)]

pub mod bitfield;
pub mod checks;
pub mod config;
pub mod detector;
pub(crate) mod engine;
pub mod locks;
pub mod metadata;
pub mod report;
pub mod service;
pub mod shard;
pub mod store;
pub mod supervise;
pub mod syncmeta;

pub use checks::{AccessType, RaceKind};
pub use config::{IguardConfig, PruneMode};
pub use detector::{Degradation, Iguard, IguardStats};
pub use report::{RaceRecord, RaceSite};
pub use service::{
    DetectorService, JobCtx, JobOutcome, LatencyStats, ServiceConfig, ServiceError, ServiceReport,
    TenantVerdict,
};
pub use shard::{ShardConfig, ShardedIguard};
pub use store::{CheckpointStore, RecoveryReport, Reject};
pub use supervise::{QuarantineEntry, QuarantineReason, SupervisorConfig, SupervisorStats};
