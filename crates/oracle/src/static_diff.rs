//! Static-pruning differential check: static verdict × pruned-iGUARD ×
//! full-iGUARD × the enumeration oracle.
//!
//! The hybrid static/dynamic pipeline (DESIGN.md §13) claims two things
//! that this module checks against ground truth, per kernel:
//!
//! 1. **Soundness** — pruning never loses a report. Whatever the fully
//!    instrumented detector flags, the pruned detector must also flag, and
//!    a kernel the oracle proves racy must never be classified all-safe.
//!    Any breach lands in the **`static-unsound`** class, which fails the
//!    campaign — the bucket must stay empty. Both rules are kernel-global
//!    (a kernel's global-memory points are all safe or none is), so a
//!    report the full run makes from a provably-safe access is a report
//!    the pruned run, which dispatches no memory callback of that kernel,
//!    cannot make: the first check already catches it.
//! 2. **Incompleteness is expected** — a clean kernel the pass could not
//!    prove safe (unknown points remain instrumented) is the pass being
//!    conservative, not wrong. These land in **`static-incomplete`**, the
//!    expected bucket, and never fail anything.
//!
//! The oracle's spec family exercises both classification rules: A (a
//! kernel with no global writes → `ReadOnlyKernel`) and B (every write a
//! device-scope atomic → `AtomicProtected`). This arm's value is
//! end-to-end soundness over kernels with ground-truth verdicts.

use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;

use crate::diff::{plans, run_plan, verdict, Detector, Verdict};
use crate::explore::{explore, ExploreConfig, Report};
use crate::spec::Spec;

/// The failing class: a soundness breach in the static pass. Must stay
/// empty over every campaign.
pub const STATIC_UNSOUND: &str = "static-unsound";
/// The expected class: a clean kernel the pass conservatively left
/// (partly) instrumented.
pub const STATIC_INCOMPLETE: &str = "static-incomplete";

/// One observation from the static differential, classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticDivergence {
    /// [`STATIC_UNSOUND`] or [`STATIC_INCOMPLETE`].
    pub class: &'static str,
    /// Which check produced it.
    pub detail: &'static str,
}

/// Full static-differential result for one kernel.
#[derive(Debug, Clone)]
pub struct StaticDiffReport {
    pub spec: Spec,
    pub oracle: Report,
    /// Static instrumentation points in the kernel body.
    pub mem_points: usize,
    /// ... provably safe / unknown.
    pub safe_points: usize,
    pub unknown_points: usize,
    /// Fully instrumented detector's verdict (seeds + witness replays).
    pub full: Verdict,
    /// Pruned detector's verdict over the same runs.
    pub pruned: Verdict,
    pub divergences: Vec<StaticDivergence>,
}

impl StaticDiffReport {
    /// Soundness breaches. A non-empty result fails the campaign.
    #[must_use]
    pub fn unsound(&self) -> Vec<StaticDivergence> {
        self.divergences
            .iter()
            .copied()
            .filter(|d| d.class == STATIC_UNSOUND)
            .collect()
    }

    /// One-line human summary, for campaign logs and repros.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{} oracle={}{} static={}m/{}s/{}u full={:?} pruned={:?}",
            self.spec.to_compact_string(),
            if self.oracle.racy { "racy" } else { "clean" },
            if self.oracle.complete {
                ""
            } else {
                " (truncated)"
            },
            self.mem_points,
            self.safe_points,
            self.unknown_points,
            self.full,
            self.pruned,
        );
        for d in &self.divergences {
            s.push_str(&format!(" [{}: {}]", d.class, d.detail));
        }
        s
    }
}

/// The static-pruning differential check for one kernel spec.
#[must_use]
pub fn diff_static(spec: &Spec) -> StaticDiffReport {
    let kernel = spec.build();
    let cls = static_an::analyze(&kernel);
    let oracle = explore(spec, &ExploreConfig::default(), true);
    let plans = plans(&oracle);
    let full = verdict(Detector::Iguard, spec, &plans);

    // The pruned detector, over the same plans; the first report decides.
    let pruned = if plans.iter().any(|&plan| {
        let mut tool = Instrumented::new(Iguard::new(IguardConfig::with_prune()));
        run_plan(spec, &kernel, plan, &mut tool);
        tool.tool().unique_races() > 0
    }) {
        Verdict::Flagged
    } else {
        Verdict::Clean
    };

    let mut divergences = Vec::new();
    if full == Verdict::Flagged && pruned == Verdict::Clean {
        divergences.push(StaticDivergence {
            class: STATIC_UNSOUND,
            detail: "pruned run lost a report the full run made",
        });
    }
    if cls.all_mem_safe() && cls.mem_points > 0 && oracle.racy {
        divergences.push(StaticDivergence {
            class: STATIC_UNSOUND,
            detail: "all-safe verdict on an oracle-racy kernel",
        });
    }
    if oracle.complete && !oracle.racy && cls.unknown_points > 0 {
        divergences.push(StaticDivergence {
            class: STATIC_INCOMPLETE,
            detail: "clean kernel conservatively left instrumented",
        });
    }

    StaticDiffReport {
        spec: spec.clone(),
        oracle,
        mem_points: cls.mem_points,
        safe_points: cls.safe_points,
        unknown_points: cls.unknown_points,
        full,
        pruned,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: &str) -> StaticDiffReport {
        diff_static(&Spec::parse(s).unwrap())
    }

    #[test]
    fn load_only_kernel_is_provably_safe_and_sound() {
        let r = run("v2;CB;Lx.Ly/Lx");
        assert!(!r.oracle.racy);
        assert_eq!(r.mem_points, r.safe_points, "{}", r.describe());
        assert_eq!(r.unknown_points, 0);
        assert_eq!(r.full, Verdict::Clean);
        assert_eq!(r.pruned, Verdict::Clean);
        assert!(r.unsound().is_empty(), "{}", r.describe());
        // Fully proven safe: not even the incomplete bucket.
        assert!(r.divergences.is_empty(), "{}", r.describe());
    }

    #[test]
    fn device_atomic_kernel_is_atomic_protected() {
        let r = run("v2;CB;aDx/aDx");
        assert!(!r.oracle.racy, "{}", r.describe());
        assert_eq!(r.mem_points, r.safe_points, "{}", r.describe());
        assert!(r.unsound().is_empty(), "{}", r.describe());
    }

    #[test]
    fn clean_store_kernel_lands_in_the_incomplete_bucket() {
        // Disjoint stores: clean, but stores behind an actor branch are
        // beyond the pass — unknown points remain, which is the expected
        // static-incomplete class.
        let r = run("v2;CB;Sy/Sz");
        assert!(!r.oracle.racy);
        assert!(r.oracle.complete);
        assert!(r.unknown_points > 0, "{}", r.describe());
        assert!(r.unsound().is_empty(), "{}", r.describe());
        assert_eq!(
            r.divergences,
            vec![StaticDivergence {
                class: STATIC_INCOMPLETE,
                detail: "clean kernel conservatively left instrumented",
            }],
            "{}",
            r.describe()
        );
    }

    #[test]
    fn racy_kernel_keeps_full_pruned_parity() {
        let r = run("v2;CB;Sx/Lx");
        assert!(r.oracle.racy);
        assert_eq!(r.full, Verdict::Flagged, "{}", r.describe());
        assert_eq!(r.pruned, Verdict::Flagged, "{}", r.describe());
        assert!(r.unsound().is_empty(), "{}", r.describe());
    }
}
