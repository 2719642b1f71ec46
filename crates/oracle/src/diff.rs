//! Differential check: detectors vs the enumeration oracle.
//!
//! For one [`Spec`] the oracle verdict comes from [`explore`] on the
//! weak-visibility machine — every reachable schedule and visibility
//! choice, so "racy" and "clean" are facts, not samples. Each detector
//! then runs over the *same* kernel on the `SEEDS` random schedules
//! **plus replays of the oracle's witness and counter-witness schedules**
//! (hooks never influence scheduling decisions, so a trace recorded under
//! the observer replays bit-identically under an instrumented detector). Replaying the witness
//! removes schedule-sampling luck from the false-negative classification:
//! if the detector stays silent on the very interleaving that exhibits the
//! race, the miss is the detector's, not the sampler's.
//!
//! Divergences with a known cause — most of them predicted by the paper
//! itself — are *explained*, not failures:
//!
//! - `barracuda-unsupported` — the front end refuses scoped atomics and
//!   warp-level barriers (§4 / Table 4).
//! - `barracuda-its-blind` — same-warp accesses are assumed
//!   lockstep-ordered, so every purely intra-warp race is invisible (§4).
//! - `barracuda-benign-atomic-read` — no P6 equivalent: plain loads of
//!   atomically-updated words (flag polling) are reported as races.
//! - `barracuda-fence-model` — Barracuda's fence model misses a race in a
//!   fence-bearing kernel.
//! - `fence-scope-approximation` — the spec fences, yet a race (or a
//!   weak-only assertion violation) survives: the detectors model fences
//!   as release-side approximations at an approximate scope (§6.2).
//! - `visibility-blind` — a weak-only assertion violation with no fence
//!   involved: plain cross-SM staleness (e.g. unfenced MP/SB). Race
//!   detectors reason about access *orders*, never about which *value* a
//!   load returns, so this is invisible to them even in principle.
//! - `iguard-scope-overwritten` (FN) and `iguard-p6-write-history` (FP) —
//!   iGUARD's per-word metadata keeps one atomic scope and clears a word's
//!   atomic history on a plain store, so two narrow shapes diverge from
//!   the oracle's history-free conflict rule (see `explain_iguard_fn` and
//!   `explain_iguard_fp`). These are known detector inaccuracies awaiting
//!   a fix, not paper predictions; the corpus pins one shape of each.
//! - `oracle-incomplete` — the enumeration hit its budget, so a "clean"
//!   oracle verdict is only a lower bound and a detector flag on top of it
//!   is not evidence of a false positive.
//!
//! Anything else is an **unexplained** divergence and fails the campaign.

use barracuda::{self, Barracuda, BinaryKind, Curd};
use gpu_sim::hook::Hook;
use gpu_sim::ir::Scope;
use gpu_sim::kernel::Kernel;
use gpu_sim::machine::Gpu;
use gpu_sim::sched::{ReplayScheduler, ScheduleTrace};
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::explore::{explore, launch, ExploreConfig, Report};
use crate::spec::{Op, Spec, NUM_SLOTS};

/// Random-scheduler seeds each detector runs under per kernel (in
/// addition to the witness replays).
const SEEDS: [u64; 3] = [1, 2, 3];

/// The detectors of the paper's Table 1, in its column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    Barracuda,
    Curd,
    /// ScoRD emulated as iGUARD's scoped logic without ITS support
    /// ([`IguardConfig::scord_like`]); the real ScoRD is new hardware.
    ScordLike,
    Iguard,
}

impl Detector {
    /// Table 1's columns.
    pub const TABLE1: [Detector; 4] = [
        Detector::Barracuda,
        Detector::Curd,
        Detector::ScordLike,
        Detector::Iguard,
    ];

    /// The name a [`Divergence`] carries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Detector::Barracuda => "barracuda",
            Detector::Curd => "curd",
            Detector::ScordLike => "scord-like",
            Detector::Iguard => "iguard",
        }
    }

    /// Builds this detector for the binary `kernels`, hands it to `run` —
    /// which launches them with it attached and returns the device — and
    /// reads its verdict: `Some(true)` when it reported a race, `None`
    /// when its front end refuses the binary.
    pub fn flags(
        self,
        kernels: &[&Kernel],
        run: impl FnOnce(&mut dyn Hook) -> Gpu,
    ) -> Option<bool> {
        let kind = BinaryKind::SingleFile;
        Some(match self {
            Detector::Barracuda => {
                barracuda::supports(kernels, kind).ok()?;
                let mut tool = Instrumented::new(Barracuda::default());
                let mut gpu = run(&mut tool);
                !tool.tool_mut().finish(gpu.clock_mut()).is_empty()
            }
            Detector::Curd => {
                let mut tool = Instrumented::new(Curd::for_kernels(kernels, kind).ok()?);
                let mut gpu = run(&mut tool);
                !tool.tool_mut().finish(gpu.clock_mut()).is_empty()
            }
            Detector::ScordLike | Detector::Iguard => {
                let cfg = match self {
                    Detector::ScordLike => IguardConfig::scord_like(),
                    _ => IguardConfig::default(),
                };
                let mut tool = Instrumented::new(Iguard::new(cfg));
                run(&mut tool);
                tool.tool().unique_races() > 0
            }
        })
    }
}

/// One detector's verdict on one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The front end refused the kernel.
    Unsupported,
    /// Flagged at least one race on at least one run.
    Flagged,
    /// Silent on every run, including the witness replays.
    Clean,
}

/// A detector/oracle disagreement, classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// `"iguard"` or `"barracuda"` ([`Detector::name`]).
    pub detector: &'static str,
    /// True when the oracle says racy (or a weak-only violation exists)
    /// and the detector stayed silent (false negative); false for the
    /// false-positive direction.
    pub false_negative: bool,
    /// A known reason, or `None` for an unexplained divergence.
    pub explanation: Option<&'static str>,
}

/// Full differential result for one spec.
#[derive(Debug, Clone)]
pub struct DiffReport {
    pub spec: Spec,
    pub oracle: Report,
    pub iguard: Verdict,
    pub barracuda: Verdict,
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// Divergences with no known explanation. A non-empty result
    /// fails the campaign.
    #[must_use]
    pub fn unexplained(&self) -> Vec<Divergence> {
        self.divergences
            .iter()
            .copied()
            .filter(|d| d.explanation.is_none())
            .collect()
    }

    /// One-line human summary, for campaign logs and shrunk repros.
    #[must_use]
    pub fn describe(&self) -> String {
        let assert_tag = match &self.oracle.assertion {
            None => "-",
            Some(a) if !a.reachable => "no",
            Some(a) if a.sc_reachable => "sc",
            Some(_) => "weak",
        };
        let mut s = format!(
            "{} oracle={} assert={assert_tag} ({} schedules, {} outcomes{}) iguard={:?} barracuda={:?}",
            self.spec.to_compact_string(),
            if self.oracle.racy { "racy" } else { "clean" },
            self.oracle.schedules,
            self.oracle.outcomes.len(),
            if self.oracle.complete { "" } else { ", truncated" },
            self.iguard,
            self.barracuda,
        );
        for d in &self.divergences {
            s.push_str(&format!(
                " [{} {}: {}]",
                d.detector,
                if d.false_negative { "FN" } else { "FP" },
                d.explanation.unwrap_or("UNEXPLAINED"),
            ));
        }
        s
    }
}

/// One detector run: the random scheduler under a seed, or a replay of
/// a witness trace.
pub(crate) type Plan<'a> = (u64, Option<&'a ScheduleTrace>);

/// Every run a detector gets on one spec: the random `SEEDS`, then
/// replays of the oracle's witness and counter-witness — both orders of
/// the racing pair, since detection can be order-sensitive. Witness
/// traces are recorded on the weak machine, so they carry `Vis`
/// decisions and replay on the same configuration.
pub(crate) fn plans(oracle: &Report) -> Vec<Plan<'_>> {
    let witnesses = [&oracle.witness, &oracle.counter_witness];
    SEEDS
        .iter()
        .map(|&s| (s, None))
        .chain(witnesses.into_iter().flatten().map(|t| (0, Some(t))))
        .collect()
}

/// Runs `kernel`, built from `spec`, under `plan` on the weak machine
/// with `hook` attached, and returns the device.
pub(crate) fn run_plan(spec: &Spec, kernel: &Kernel, plan: Plan<'_>, hook: &mut dyn Hook) -> Gpu {
    let mut replay = plan.1.map(|t| ReplayScheduler::new(t.clone()));
    let sched = replay.as_mut().map(|r| r as _);
    launch(spec, kernel, true, plan.0, hook, sched)
        .unwrap_or_else(|e| panic!("detector run of {} failed: {e}", spec.to_compact_string()))
        .0
}

/// `detector`'s verdict on `spec` over `plans`, in order: `Flagged` at
/// the first run that reports a race, `Unsupported` when the front end
/// refuses the kernel.
pub(crate) fn verdict(detector: Detector, spec: &Spec, plans: &[Plan<'_>]) -> Verdict {
    let kernel = spec.build();
    for &plan in plans {
        match detector.flags(&[&kernel], |hook| run_plan(spec, &kernel, plan, hook)) {
            None => return Verdict::Unsupported,
            Some(true) => return Verdict::Flagged,
            Some(false) => {}
        }
    }
    Verdict::Clean
}

/// The location and scope of an atomic op.
fn atomic_site(op: Op) -> Option<(u8, Scope)> {
    match op {
        Op::AtomicAdd { loc, scope } | Op::AtomicExch { loc, scope } => Some((loc, scope)),
        _ => None,
    }
}

/// Explains an iGUARD false negative on a race, if a known detector
/// approximation predicts one:
///
/// - `fence-scope-approximation` — see the module docs;
/// - `iguard-scope-overwritten` — one actor runs a block-scope atomic and
///   later a device-scope atomic on the same word. The per-word metadata
///   keeps only the latest atomic's scope, so R1 sees the block scope only
///   on schedules where the other block's access lands between the two
///   RMWs, and the replayed witnesses need not be among them.
fn explain_iguard_fn(spec: &Spec) -> Option<&'static str> {
    if spec.has_fence() {
        return Some("fence-scope-approximation");
    }
    let overwritten = spec.actors.iter().any(|ops| {
        ops.iter()
            .enumerate()
            .any(|(i, &op)| match atomic_site(op) {
                Some((loc, Scope::Block)) => ops[i + 1..]
                    .iter()
                    .any(|&later| atomic_site(later) == Some((loc, Scope::Device))),
                _ => false,
            })
    });
    overwritten.then_some("iguard-scope-overwritten")
}

/// Explains an iGUARD false positive, if a known detector approximation
/// predicts one (`iguard-p6-write-history`): a word that some actor
/// plain-stores also takes an atomic from one actor and a plain load from
/// another. iGUARD's P6 excuses an atomic/plain-load pair only on a word
/// no plain store has written (a store clears the word's atomic history),
/// while the oracle's conflict rule excuses every sufficient-scope
/// atomic/plain-load pair. A barrier-ordered store followed by an
/// unordered atomic/load pair is therefore clean to the oracle and an ITS
/// race to iGUARD.
fn explain_iguard_fp(spec: &Spec) -> Option<&'static str> {
    let history = (0..NUM_SLOTS).any(|l| {
        let stores = |a: &Vec<Op>| a.contains(&Op::Store { loc: l });
        let loads = |a: &Vec<Op>| a.contains(&Op::Load { loc: l });
        let atomics = |a: &Vec<Op>| {
            a.iter()
                .any(|&op| atomic_site(op).is_some_and(|(loc, _)| loc == l))
        };
        spec.actors.iter().any(stores)
            && spec.actors.iter().enumerate().any(|(i, a)| {
                atomics(a)
                    && spec
                        .actors
                        .iter()
                        .enumerate()
                        .any(|(j, b)| i != j && loads(b))
            })
    });
    history.then_some("iguard-p6-write-history")
}

/// Explains a Barracuda false negative on a race, if the paper predicts
/// one.
fn explain_barracuda_fn(spec: &Spec, oracle: &Report) -> Option<&'static str> {
    if oracle.kinds().iter().all(|k| *k == "ITS" || *k == "BR") {
        // Every race is intra-warp: hidden by the lockstep assumption.
        return Some("barracuda-its-blind");
    }
    spec.has_fence().then_some("barracuda-fence-model")
}

/// Explains a Barracuda false positive, if the paper predicts one:
/// Barracuda's HB engine has no benign-atomic-read convention (iGUARD's
/// P6), so a plain load of a word updated by sufficient-scope atomics —
/// the flag-polling idiom the paper uses to motivate P6 — is reported as
/// a write-read race.
fn explain_barracuda_fp(spec: &Spec) -> Option<&'static str> {
    let touches = |ops: &[Op], want_atomic: bool, l: u8| {
        ops.iter().any(|op| match *op {
            Op::AtomicAdd { loc, .. } | Op::AtomicExch { loc, .. } => want_atomic && loc == l,
            Op::Load { loc } => !want_atomic && loc == l,
            _ => false,
        })
    };
    let benign_pair = (0..NUM_SLOTS).any(|l| {
        spec.actors.iter().enumerate().any(|(i, a)| {
            touches(a, true, l)
                && spec
                    .actors
                    .iter()
                    .enumerate()
                    .any(|(j, b)| i != j && touches(b, false, l))
        })
    });
    benign_pair.then_some("barracuda-benign-atomic-read")
}

/// Explains the weak-anomaly blindness class of a silent detector.
fn explain_weak_anomaly(spec: &Spec) -> &'static str {
    if spec.has_fence() {
        "fence-scope-approximation"
    } else {
        "visibility-blind"
    }
}

/// The full differential check for one spec: weak-visibility oracle vs
/// iGUARD and Barracuda on random schedules plus witness replays.
#[must_use]
pub fn diff(spec: &Spec) -> DiffReport {
    let oracle = explore(spec, &ExploreConfig::default(), true);
    let plans = plans(&oracle);
    let verdicts = [Detector::Iguard, Detector::Barracuda].map(|d| (d, verdict(d, spec, &plans)));

    let mut divergences = Vec::new();
    for (d, v) in verdicts {
        let (false_negative, explanation) = match (oracle.racy, v) {
            (true, Verdict::Unsupported) => (true, Some("barracuda-unsupported")),
            (true, Verdict::Clean) if d == Detector::Iguard => (true, explain_iguard_fn(spec)),
            (true, Verdict::Clean) => (true, explain_barracuda_fn(spec, &oracle)),
            (false, Verdict::Flagged) => {
                let known = match d {
                    Detector::Iguard => explain_iguard_fp(spec),
                    _ => explain_barracuda_fp(spec),
                };
                // An incomplete enumeration makes "clean" a lower bound only.
                (
                    false,
                    known.or_else(|| (!oracle.complete).then_some("oracle-incomplete")),
                )
            }
            _ => continue,
        };
        divergences.push(Divergence {
            detector: d.name(),
            false_negative,
            explanation,
        });
    }

    // Weak-memory anomaly: the forbidden final state is reachable, but
    // only through relaxed visibility, and a detector reported nothing at
    // all — an order-blind miss no race report covers.
    let weak_violation = oracle
        .assertion
        .as_ref()
        .is_some_and(|a| a.reachable && !a.sc_reachable);
    for (d, v) in verdicts.into_iter().filter(|_| weak_violation) {
        let explanation = match v {
            Verdict::Clean => explain_weak_anomaly(spec),
            Verdict::Unsupported => "barracuda-unsupported",
            Verdict::Flagged => continue,
        };
        divergences.push(Divergence {
            detector: d.name(),
            false_negative: true,
            explanation: Some(explanation),
        });
    }

    let [(_, iguard), (_, barracuda)] = verdicts;
    DiffReport {
        spec: spec.clone(),
        oracle,
        iguard,
        barracuda,
        divergences,
    }
}

/// Deterministic `fuzz` stream: `n` two-actor race specs from `seed`.
#[must_use]
pub fn generate_specs(n: usize, seed: u64) -> Vec<Spec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| Spec::random_race(&mut rng)).collect()
}

/// Deterministic `fuzz --litmus` stream: `n` litmus specs from `seed`.
#[must_use]
pub fn generate_litmus(n: usize, seed: u64) -> Vec<Spec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| Spec::random_litmus(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: &str) -> DiffReport {
        diff(&Spec::parse(s).unwrap())
    }

    #[test]
    fn iguard_agrees_on_a_cross_block_race() {
        let r = run("v2;CB;Sx/Lx");
        assert!(r.oracle.racy);
        assert_eq!(r.iguard, Verdict::Flagged);
        assert!(r.unexplained().is_empty(), "{}", r.describe());
    }

    #[test]
    fn barracuda_miss_of_an_its_race_is_explained() {
        let r = run("v2;SW;Sy/Ly");
        assert!(r.oracle.racy);
        assert_eq!(r.iguard, Verdict::Flagged, "{}", r.describe());
        assert_eq!(r.barracuda, Verdict::Clean, "{}", r.describe());
        let div: Vec<_> = r.divergences.iter().collect();
        assert_eq!(div.len(), 1);
        assert_eq!(div[0].explanation, Some("barracuda-its-blind"));
        assert!(r.unexplained().is_empty());
    }

    #[test]
    fn scoped_atomic_kernels_divert_to_barracuda_unsupported() {
        let r = run("v2;CB;aBx/aBx");
        assert!(r.oracle.racy, "{}", r.describe());
        assert_eq!(r.barracuda, Verdict::Unsupported);
        assert!(r
            .divergences
            .iter()
            .all(|d| d.explanation == Some("barracuda-unsupported") || d.detector == "iguard"));
        assert!(r.unexplained().is_empty(), "{}", r.describe());
    }

    /// CURD and the ScoRD-like configuration under the oracle's verdict
    /// protocol reproduce `table1`'s Sc.-atomic and ITS rows.
    #[test]
    fn table1_detectors_meet_the_oracle() {
        use Verdict::{Clean, Flagged, Unsupported};
        for (s, row) in [
            (
                "v2;CB;aBx/aBx",
                [Unsupported, Unsupported, Flagged, Flagged],
            ),
            ("v2;SW;Sy/Ly", [Clean, Clean, Clean, Flagged]),
        ] {
            let spec = Spec::parse(s).unwrap();
            let oracle = explore(&spec, &ExploreConfig::default(), true);
            assert!(oracle.racy, "{s}");
            let plans = plans(&oracle);
            assert_eq!(
                Detector::TABLE1.map(|d| verdict(d, &spec, &plans)),
                row,
                "{s}"
            );
        }
    }

    #[test]
    fn clean_kernels_produce_no_divergence() {
        let r = run("v2;CB;Lx.Sy/Lx.Sz");
        assert!(!r.oracle.racy);
        assert!(r.oracle.complete);
        assert_eq!(r.iguard, Verdict::Clean, "{}", r.describe());
        assert!(r.divergences.is_empty(), "{}", r.describe());
    }
}
