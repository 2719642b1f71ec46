//! Schedule-space ground truth for the race detectors.
//!
//! The simulator's ITS mode samples one interleaving per seed, so a detector
//! test can only say "iGUARD flagged / did not flag this kernel *on the
//! schedules we happened to draw*". This crate removes the sampling from the
//! verdict: for a family of tiny two-actor kernels it enumerates **every**
//! reachable ITS schedule with [`gpu_sim::sched::EnumeratingScheduler`],
//! derives the ground-truth race verdict from order variance across the
//! whole space ([`explore`]), and then runs iGUARD and Barracuda over the
//! same kernels, classifying each disagreement as a false negative / false
//! positive or as one of the *explained* divergences the paper itself
//! predicts ([`diff`]).
//!
//! Divergent kernels are shrunk to a minimal spec ([`shrink`]) and stored
//! with their witness schedule trace in a versioned regression corpus
//! ([`corpus`]) that a tier-1 test replays deterministically.
//!
//! On top of the v1 two-actor family sits the **weak-memory litmus
//! engine**: a `v2` multi-actor litmus language ([`litmus`]), relaxed-
//! visibility enumeration producing "racy / race-free /
//! assertion-violating under weak memory" verdicts
//! ([`explore::explore_litmus`]), a litmus-specific differential check
//! with weak-memory divergence classes ([`diff::diff_litmus`]), and its
//! own versioned corpus (`tests/corpus/litmus_v2.corpus`).

#![forbid(unsafe_code)]

pub mod corpus;
pub mod diff;
pub mod explore;
pub mod litmus;
pub mod observer;
pub mod shrink;
pub mod spec;
pub mod static_diff;

pub use diff::{
    diff_litmus, diff_spec, DiffConfig, DiffReport, Divergence, LitmusDiffReport, Verdict,
};
pub use explore::{
    explore, explore_litmus, litmus_gpu_config, oracle_gpu_config, AssertionVerdict,
    ExploreConfig, LitmusOutcome, LitmusReport, OracleRace, OracleReport,
};
pub use litmus::{Cond, LitmusError, LitmusOp, LitmusSpec, MAX_ACTORS, MIN_ACTORS};
pub use observer::{ObservedAccess, ObservedLoad, Observer};
pub use shrink::{shrink_litmus, shrink_spec};
pub use spec::{KernelSpec, Op, Placement, NUM_SLOTS};
pub use static_diff::{
    diff_static, StaticDiffReport, StaticDivergence, STATIC_INCOMPLETE, STATIC_UNSOUND,
};
