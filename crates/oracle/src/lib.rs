//! Schedule-space ground truth for the race detectors.
//!
//! The simulator's ITS mode samples one interleaving per seed, so a detector
//! test can only say "iGUARD flagged / did not flag this kernel *on the
//! schedules we happened to draw*". This crate removes the sampling from the
//! verdict: for a family of tiny multi-actor kernels written in one compact
//! spec language ([`spec`]) it enumerates **every** reachable schedule and
//! load-visibility choice with [`gpu_sim::sched::EnumeratingScheduler`]
//! under eager-invisible partial-order reduction, derives the ground-truth
//! race verdict from order variance across the whole space and classifies
//! each run's final state as sequentially consistent or weak-only
//! ([`explore`](mod@explore)), and then runs iGUARD and Barracuda over the same kernels,
//! classifying each disagreement as a false negative / false positive or as
//! one of the *explained* divergences the paper itself predicts
//! ([`diff`](mod@diff)).
//!
//! Divergent specs are shrunk to a minimal spec ([`shrink`](mod@shrink))
//! and stored with their witness schedule trace in one versioned
//! regression corpus ([`corpus`], `tests/corpus/oracle.corpus`) that a
//! tier-1 test replays deterministically. Two streams draw from the language, both run by
//! the `fuzz` binary: two-actor race kernels and (`fuzz --litmus`)
//! 2–4-actor weak-memory tests.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod diff;
pub mod explore;
pub mod observer;
pub mod shrink;
pub mod spec;
pub mod static_diff;

pub use diff::{diff, Detector, DiffReport, Divergence, Verdict};
pub use explore::{
    explore, gpu_config, AssertionVerdict, ExploreConfig, OracleRace, Outcome, Report,
};
pub use observer::{ObservedAccess, ObservedLoad, Observer};
pub use shrink::shrink;
pub use spec::{Cond, Op, Placement, Spec, SpecError, MAX_ACTORS, MIN_ACTORS, NUM_SLOTS};
pub use static_diff::{
    diff_static, StaticDiffReport, StaticDivergence, STATIC_INCOMPLETE, STATIC_UNSOUND,
};
