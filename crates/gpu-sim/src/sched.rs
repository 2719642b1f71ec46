//! Pluggable warp-split scheduling.
//!
//! The simulator's ITS interleaving choices — which warp steps next, which
//! PC group of a warp runs, and whether a converged split is subdivided —
//! were originally baked into `machine.rs` as calls on one seeded
//! [`SmallRng`]. This module lifts those choices behind the [`Scheduler`]
//! trait so the same execution core can be driven by:
//!
//! - [`RandomScheduler`] — the production scheduler, reproducing the
//!   original RNG call sequence *byte for byte* (the golden equivalence
//!   tests pin this);
//! - [`ReplayScheduler`] — replays a recorded [`ScheduleTrace`], turning
//!   any interleaving into a deterministic regression test;
//! - [`EnumeratingScheduler`] — depth-first systematic enumeration of the
//!   bounded schedule space, the engine behind the `oracle` crate's
//!   ground-truth race verdicts;
//! - [`RecordingScheduler`] — a transparent wrapper that captures the
//!   decision trace of any inner scheduler for later replay.
//!
//! # Decision protocol
//!
//! The machine consults the scheduler at exactly these points:
//!
//! 1. `begin_launch` once per launch, before any instruction executes.
//! 2. If [`Scheduler::wants_warp_choice`] is true, `choose_warp(n)` every
//!    step where `n > 1` warps have a runnable lane (the candidate list is
//!    ordered by flat `(block, warp)` index). Schedulers that decline keep
//!    the original fair round-robin scan, which consults no randomness.
//! 3. In ITS mode, `choose_pc(n)` over the warp's `n` distinct sorted PCs —
//!    called even when `n == 1`, because the original code unconditionally
//!    drew from the RNG there and byte-identity requires preserving the
//!    draw.
//! 4. In ITS mode, for a chosen split wider than one lane,
//!    `choose_subdivision(len)` may carve out a sub-range `(start, keep)`.
//!
//! A [`RecordingScheduler`] records the outcome of every consultation, so a
//! trace replayed through [`ReplayScheduler`] drives the machine through
//! the identical schedule regardless of which scheduler produced it.

use faults::{fnv1a, FNV1A_BASIS};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::hook::ExecMode;

/// Launch parameters a scheduler may condition on (notably for per-launch
/// reseeding).
#[derive(Debug, Clone, Copy)]
pub struct LaunchContext {
    pub grid_dim: u32,
    pub block_dim: u32,
    pub mode: ExecMode,
}

/// The warp-split decision source driving a launch.
pub trait Scheduler {
    /// Called once per launch before any instruction executes.
    fn begin_launch(&mut self, ctx: &LaunchContext);

    /// Whether the machine should offer this scheduler the choice of which
    /// runnable warp steps next. When false (the default), the machine
    /// keeps its fair round-robin scan — the production behaviour.
    fn wants_warp_choice(&self) -> bool {
        false
    }

    /// Whether the machine should execute *invisible* instructions (ALU,
    /// branches, barrier arrivals, exits — anything that cannot affect or
    /// observe global memory) eagerly, without consulting the scheduler.
    /// This is the partial-order reduction behind the litmus oracle: only
    /// interleavings of global-memory operations branch the schedule tree,
    /// shrinking the space from a multinomial over *all* instructions to a
    /// multinomial over the visible ones. Off by default — the v1 oracle's
    /// completeness argument counts every instruction.
    fn wants_eager_invisible(&self) -> bool {
        false
    }

    /// Picks among `n > 1` distinct *visibility candidates* for a weak
    /// load (see `GpuConfig::weak_visibility`): index 0 is always the
    /// legacy (local-line-else-L2) value, further candidates are newer L2
    /// or remote not-yet-written-back values. Only consulted when weak
    /// visibility is enabled and more than one value is observable.
    fn choose_visibility(&mut self, n: usize) -> usize {
        let _ = n;
        0
    }

    /// Picks among `n > 1` runnable warps (index into the candidate list,
    /// ordered by flat `(block, warp)` position). Only called when
    /// [`Scheduler::wants_warp_choice`] is true.
    fn choose_warp(&mut self, n: usize) -> usize {
        let _ = n;
        0
    }

    /// Picks among the warp's `n` distinct PCs (ascending order). Called
    /// for every ITS split selection, including `n == 1`.
    fn choose_pc(&mut self, n: usize) -> usize;

    /// Optionally subdivides a converged split of `len > 1` lanes:
    /// `Some((start, keep))` keeps `keep` lanes beginning at `start`,
    /// `None` keeps the whole split.
    fn choose_subdivision(&mut self, len: usize) -> Option<(usize, usize)>;
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn begin_launch(&mut self, ctx: &LaunchContext) {
        (**self).begin_launch(ctx);
    }

    fn wants_warp_choice(&self) -> bool {
        (**self).wants_warp_choice()
    }

    fn wants_eager_invisible(&self) -> bool {
        (**self).wants_eager_invisible()
    }

    fn choose_visibility(&mut self, n: usize) -> usize {
        (**self).choose_visibility(n)
    }

    fn choose_warp(&mut self, n: usize) -> usize {
        (**self).choose_warp(n)
    }

    fn choose_pc(&mut self, n: usize) -> usize {
        (**self).choose_pc(n)
    }

    fn choose_subdivision(&mut self, len: usize) -> Option<(usize, usize)> {
        (**self).choose_subdivision(len)
    }
}

/// The production scheduler: seeded pseudo-random ITS choices.
///
/// Reproduces the pre-refactor behaviour exactly — same per-launch seed
/// derivation, same RNG call sequence, same sampling functions — so every
/// stat, report, and cycle count is byte-identical to the inline
/// implementation it replaced.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    seed: u64,
    split_prob: f64,
    rng: SmallRng,
}

impl RandomScheduler {
    /// A scheduler drawing from `seed` (per-launch reseeded) that
    /// subdivides converged splits with probability `split_prob`.
    #[must_use]
    pub fn new(seed: u64, split_prob: f64) -> Self {
        RandomScheduler {
            seed,
            split_prob,
            // Placeholder stream; begin_launch reseeds before use.
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn begin_launch(&mut self, ctx: &LaunchContext) {
        // The historical per-launch seed derivation; golden tests pin it.
        self.rng = SmallRng::seed_from_u64(
            self.seed ^ ((ctx.grid_dim as u64) << 32) ^ ctx.block_dim as u64,
        );
    }

    fn choose_pc(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    fn choose_subdivision(&mut self, len: usize) -> Option<(usize, usize)> {
        if !self.rng.random_bool(self.split_prob) {
            return None;
        }
        let keep = self.rng.random_range(1..len);
        let start = self.rng.random_range(0..=len - keep);
        Some((start, keep))
    }

    fn choose_visibility(&mut self, n: usize) -> usize {
        // Only reached in weak-visibility mode, so the extra draw cannot
        // perturb the golden (strong-memory) RNG sequence.
        self.rng.random_range(0..n)
    }
}

/// One recorded scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// `begin_launch` marker; delimits launches in multi-launch traces.
    Begin,
    /// Warp chosen among the runnable candidates.
    Warp(u32),
    /// PC group chosen within a warp.
    Pc(u32),
    /// Converged split kept whole.
    KeepAll,
    /// Converged split subdivided to `keep` lanes starting at `start`.
    Split { start: u32, keep: u32 },
    /// Visibility candidate chosen for a weak load.
    Vis(u32),
}

/// A complete, replayable record of a launch's scheduling decisions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Whether the recording scheduler drove warp choice (replay must run
    /// the machine through the same code path to stay aligned).
    pub warp_choice: bool,
    /// Whether the recording scheduler requested eager-invisible execution
    /// (replay must reproduce the same reduced branching structure).
    pub eager: bool,
    pub decisions: Vec<Decision>,
}

impl ScheduleTrace {
    /// FNV-1a digest of the decision stream — a compact schedule identity
    /// for corpus entries and golden pins.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A_BASIS;
        let mut eat = |b: u64| h = fnv1a(h, &b.to_le_bytes());
        eat(u64::from(self.warp_choice));
        // Appended only when set so every pre-existing (non-eager) trace
        // keeps its historical digest.
        if self.eager {
            eat(7);
        }
        for d in &self.decisions {
            match *d {
                Decision::Begin => eat(1),
                Decision::Warp(i) => {
                    eat(2);
                    eat(u64::from(i));
                }
                Decision::Pc(i) => {
                    eat(3);
                    eat(u64::from(i));
                }
                Decision::KeepAll => eat(4),
                Decision::Split { start, keep } => {
                    eat(5);
                    eat(u64::from(start));
                    eat(u64::from(keep));
                }
                Decision::Vis(i) => {
                    eat(6);
                    eat(u64::from(i));
                }
            }
        }
        h
    }

    /// Serializes to the versioned single-line corpus form, e.g.
    /// `v1;w;B.W1.P0.K.S1:2` (`we`/`re` headers mark eager traces).
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut s = String::from(match (self.warp_choice, self.eager) {
            (true, false) => "v1;w;",
            (false, false) => "v1;r;",
            (true, true) => "v1;we;",
            (false, true) => "v1;re;",
        });
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                s.push('.');
            }
            match *d {
                Decision::Begin => s.push('B'),
                Decision::Warp(n) => {
                    s.push('W');
                    s.push_str(&n.to_string());
                }
                Decision::Pc(n) => {
                    s.push('P');
                    s.push_str(&n.to_string());
                }
                Decision::KeepAll => s.push('K'),
                Decision::Split { start, keep } => {
                    s.push('S');
                    s.push_str(&start.to_string());
                    s.push(':');
                    s.push_str(&keep.to_string());
                }
                Decision::Vis(n) => {
                    s.push('V');
                    s.push_str(&n.to_string());
                }
            }
        }
        s
    }

    /// Parses the form produced by [`ScheduleTrace::to_compact_string`].
    pub fn parse(s: &str) -> Result<Self, String> {
        let rest = s
            .strip_prefix("v1;")
            .ok_or_else(|| format!("unknown trace version in {s:?}"))?;
        let (warp_choice, eager, body) = match rest.split_once(';') {
            Some(("w", b)) => (true, false, b),
            Some(("r", b)) => (false, false, b),
            Some(("we", b)) => (true, true, b),
            Some(("re", b)) => (false, true, b),
            _ => return Err(format!("bad trace header in {s:?}")),
        };
        let mut decisions = Vec::new();
        if !body.is_empty() {
            for tok in body.split('.') {
                let d = match tok.split_at(1) {
                    ("B", "") => Decision::Begin,
                    ("K", "") => Decision::KeepAll,
                    ("W", n) => Decision::Warp(n.parse().map_err(|e| format!("{tok:?}: {e}"))?),
                    ("P", n) => Decision::Pc(n.parse().map_err(|e| format!("{tok:?}: {e}"))?),
                    ("V", n) => Decision::Vis(n.parse().map_err(|e| format!("{tok:?}: {e}"))?),
                    ("S", n) => {
                        let (a, b) = n
                            .split_once(':')
                            .ok_or_else(|| format!("bad split token {tok:?}"))?;
                        Decision::Split {
                            start: a.parse().map_err(|e| format!("{tok:?}: {e}"))?,
                            keep: b.parse().map_err(|e| format!("{tok:?}: {e}"))?,
                        }
                    }
                    _ => return Err(format!("unknown trace token {tok:?}")),
                };
                decisions.push(d);
            }
        }
        Ok(ScheduleTrace {
            warp_choice,
            eager,
            decisions,
        })
    }
}

/// Wraps any scheduler, recording every decision it makes.
#[derive(Debug)]
pub struct RecordingScheduler<S> {
    inner: S,
    trace: ScheduleTrace,
}

impl<S: Scheduler> RecordingScheduler<S> {
    pub fn new(inner: S) -> Self {
        let warp_choice = inner.wants_warp_choice();
        let eager = inner.wants_eager_invisible();
        RecordingScheduler {
            inner,
            trace: ScheduleTrace {
                warp_choice,
                eager,
                decisions: Vec::new(),
            },
        }
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &ScheduleTrace {
        &self.trace
    }

    /// Consumes the wrapper, yielding the recorded trace.
    #[must_use]
    pub fn into_trace(self) -> ScheduleTrace {
        self.trace
    }

    /// The wrapped scheduler.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn begin_launch(&mut self, ctx: &LaunchContext) {
        self.inner.begin_launch(ctx);
        self.trace.decisions.push(Decision::Begin);
    }

    fn wants_warp_choice(&self) -> bool {
        self.inner.wants_warp_choice()
    }

    fn wants_eager_invisible(&self) -> bool {
        self.inner.wants_eager_invisible()
    }

    fn choose_visibility(&mut self, n: usize) -> usize {
        let i = self.inner.choose_visibility(n);
        self.trace.decisions.push(Decision::Vis(i as u32));
        i
    }

    fn choose_warp(&mut self, n: usize) -> usize {
        let i = self.inner.choose_warp(n);
        self.trace.decisions.push(Decision::Warp(i as u32));
        i
    }

    fn choose_pc(&mut self, n: usize) -> usize {
        let i = self.inner.choose_pc(n);
        self.trace.decisions.push(Decision::Pc(i as u32));
        i
    }

    fn choose_subdivision(&mut self, len: usize) -> Option<(usize, usize)> {
        match self.inner.choose_subdivision(len) {
            None => {
                self.trace.decisions.push(Decision::KeepAll);
                None
            }
            Some((start, keep)) => {
                self.trace.decisions.push(Decision::Split {
                    start: start as u32,
                    keep: keep as u32,
                });
                Some((start, keep))
            }
        }
    }
}

/// Replays a recorded [`ScheduleTrace`] decision-for-decision.
///
/// Panics loudly on any desynchronization (wrong decision kind, index out
/// of range, trace exhausted): a trace is only meaningful against the
/// exact kernel/launch it was recorded from, and silent drift would turn
/// a regression test into noise.
#[derive(Debug, Clone)]
pub struct ReplayScheduler {
    trace: ScheduleTrace,
    pos: usize,
}

impl ReplayScheduler {
    #[must_use]
    pub fn new(trace: ScheduleTrace) -> Self {
        ReplayScheduler { trace, pos: 0 }
    }

    /// Whether every recorded decision has been consumed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.pos == self.trace.decisions.len()
    }

    fn next(&mut self, expecting: &str) -> Decision {
        let d = *self.trace.decisions.get(self.pos).unwrap_or_else(|| {
            panic!(
                "replay trace exhausted at decision {} (expecting {expecting})",
                self.pos
            )
        });
        self.pos += 1;
        d
    }
}

impl Scheduler for ReplayScheduler {
    fn begin_launch(&mut self, _ctx: &LaunchContext) {
        match self.next("Begin") {
            Decision::Begin => {}
            d => panic!("replay desynchronized: expected Begin, trace has {d:?}"),
        }
    }

    fn wants_warp_choice(&self) -> bool {
        self.trace.warp_choice
    }

    fn wants_eager_invisible(&self) -> bool {
        self.trace.eager
    }

    fn choose_visibility(&mut self, n: usize) -> usize {
        match self.next("Vis") {
            Decision::Vis(i) if (i as usize) < n => i as usize,
            d => panic!("replay desynchronized: expected Vis(<{n}), trace has {d:?}"),
        }
    }

    fn choose_warp(&mut self, n: usize) -> usize {
        match self.next("Warp") {
            Decision::Warp(i) if (i as usize) < n => i as usize,
            d => panic!("replay desynchronized: expected Warp(<{n}), trace has {d:?}"),
        }
    }

    fn choose_pc(&mut self, n: usize) -> usize {
        match self.next("Pc") {
            Decision::Pc(i) if (i as usize) < n => i as usize,
            d => panic!("replay desynchronized: expected Pc(<{n}), trace has {d:?}"),
        }
    }

    fn choose_subdivision(&mut self, len: usize) -> Option<(usize, usize)> {
        match self.next("KeepAll/Split") {
            Decision::KeepAll => None,
            Decision::Split { start, keep }
                if keep >= 1 && (keep as usize) < len && (start as usize) + (keep as usize) <= len =>
            {
                Some((start as usize, keep as usize))
            }
            d => panic!("replay desynchronized: expected subdivision of {len} lanes, trace has {d:?}"),
        }
    }
}

/// Depth-first systematic enumeration of the bounded schedule space.
///
/// Each *run* of the machine traverses one root-to-leaf path of the
/// decision tree; [`EnumeratingScheduler::advance`] then steps to the next
/// unexplored path. Choice points with a single option are not part of the
/// tree (they cannot branch), and subdivision is never exercised —
/// enumeration explores warp and PC interleavings of intact splits, which
/// is the space the oracle's completeness argument covers.
///
/// ```text
/// let mut e = EnumeratingScheduler::new(64);
/// loop {
///     /* run one launch with &mut e, observe it */
///     if !e.advance() { break; }    // space exhausted
/// }
/// assert!(!e.truncated());          // bound was large enough
/// ```
#[derive(Debug, Clone)]
pub struct EnumeratingScheduler {
    /// DFS path: `(chosen, options)` per branching choice point.
    path: Vec<(u32, u32)>,
    /// Branching decisions consumed so far in the current run.
    depth: usize,
    /// Maximum branching decisions per run; beyond it the scheduler takes
    /// choice 0 and flags [`EnumeratingScheduler::truncated`].
    max_decisions: usize,
    truncated: bool,
    /// Completed runs (schedules), counted by `advance`.
    schedules: u64,
    /// Request eager-invisible execution (litmus partial-order reduction).
    eager: bool,
}

impl EnumeratingScheduler {
    /// An enumerator exploring at most `max_decisions` branching choice
    /// points per schedule.
    #[must_use]
    pub fn new(max_decisions: usize) -> Self {
        EnumeratingScheduler {
            path: Vec::new(),
            depth: 0,
            max_decisions,
            truncated: false,
            schedules: 0,
            eager: false,
        }
    }

    /// An enumerator that additionally requests eager-invisible execution,
    /// so only global-memory operations branch the schedule tree. Used by
    /// the litmus oracle, where multi-actor kernels would otherwise blow
    /// up the full-instruction interleaving space.
    #[must_use]
    pub fn new_eager(max_decisions: usize) -> Self {
        EnumeratingScheduler {
            eager: true,
            ..EnumeratingScheduler::new(max_decisions)
        }
    }

    /// Whether any run exceeded the decision budget (the enumeration is
    /// then a *prefix* of the space, not the whole space).
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Completed schedules so far (including the run `advance` just
    /// finished).
    #[must_use]
    pub fn schedules_completed(&self) -> u64 {
        self.schedules
    }

    /// Finishes the current run and moves to the next unexplored path.
    /// Returns false once the whole space has been visited.
    pub fn advance(&mut self) -> bool {
        self.schedules += 1;
        // Entries beyond this run's depth are stale leftovers from a
        // deeper sibling; the next path must not resurrect them.
        self.path.truncate(self.depth);
        self.depth = 0;
        while let Some(&(c, n)) = self.path.last() {
            if c + 1 < n {
                self.path.last_mut().unwrap().0 = c + 1;
                return true;
            }
            self.path.pop();
        }
        false
    }

    fn decide(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        if self.depth >= self.max_decisions {
            self.truncated = true;
            return 0;
        }
        if self.depth == self.path.len() {
            self.path.push((0, n as u32));
        }
        let (c, stored_n) = self.path[self.depth];
        assert_eq!(
            stored_n, n as u32,
            "enumeration desynchronized at depth {}: run offered {} options where a \
             previous run saw {} (kernel must be schedule-deterministic)",
            self.depth, n, stored_n
        );
        self.depth += 1;
        c as usize
    }
}

impl Scheduler for EnumeratingScheduler {
    fn begin_launch(&mut self, _ctx: &LaunchContext) {
        self.depth = 0;
    }

    fn wants_warp_choice(&self) -> bool {
        true
    }

    fn wants_eager_invisible(&self) -> bool {
        self.eager
    }

    fn choose_visibility(&mut self, n: usize) -> usize {
        self.decide(n)
    }

    fn choose_warp(&mut self, n: usize) -> usize {
        self.decide(n)
    }

    fn choose_pc(&mut self, n: usize) -> usize {
        self.decide(n)
    }

    fn choose_subdivision(&mut self, _len: usize) -> Option<(usize, usize)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scheduler_matches_raw_rng_sequence() {
        // The refactor contract: RandomScheduler consumes the RNG exactly
        // as the inline code did.
        let ctx = LaunchContext {
            grid_dim: 3,
            block_dim: 64,
            mode: ExecMode::Its,
        };
        let mut s = RandomScheduler::new(42, 0.5);
        s.begin_launch(&ctx);
        let mut rng = SmallRng::seed_from_u64(42 ^ (3u64 << 32) ^ 64u64);
        for trial in 0..2000 {
            let n = 1 + trial % 5;
            assert_eq!(s.choose_pc(n), rng.random_range(0..n));
            let len = 2 + trial % 7;
            let expect = if rng.random_bool(0.5) {
                let keep = rng.random_range(1..len);
                let start = rng.random_range(0..=len - keep);
                Some((start, keep))
            } else {
                None
            };
            assert_eq!(s.choose_subdivision(len), expect);
        }
    }

    #[test]
    fn trace_roundtrips_through_compact_string() {
        let t = ScheduleTrace {
            warp_choice: true,
            eager: false,
            decisions: vec![
                Decision::Begin,
                Decision::Warp(3),
                Decision::Pc(0),
                Decision::KeepAll,
                Decision::Split { start: 1, keep: 2 },
            ],
        };
        let s = t.to_compact_string();
        assert_eq!(s, "v1;w;B.W3.P0.K.S1:2");
        assert_eq!(ScheduleTrace::parse(&s).unwrap(), t);
        let empty = ScheduleTrace::default();
        assert_eq!(
            ScheduleTrace::parse(&empty.to_compact_string()).unwrap(),
            empty
        );
        assert!(ScheduleTrace::parse("v2;r;B").is_err());
        assert!(ScheduleTrace::parse("v1;x;B").is_err());
        assert!(ScheduleTrace::parse("v1;r;Q9").is_err());
    }

    #[test]
    fn eager_trace_roundtrips_and_is_digest_distinct() {
        let t = ScheduleTrace {
            warp_choice: true,
            eager: true,
            decisions: vec![Decision::Begin, Decision::Warp(1), Decision::Vis(2)],
        };
        let s = t.to_compact_string();
        assert_eq!(s, "v1;we;B.W1.V2");
        assert_eq!(ScheduleTrace::parse(&s).unwrap(), t);
        let mut strong = t.clone();
        strong.eager = false;
        assert_eq!(strong.to_compact_string(), "v1;w;B.W1.V2");
        assert_ne!(t.digest(), strong.digest());
        assert!(ScheduleTrace::parse("v1;ew;B").is_err());
    }

    #[test]
    fn digest_distinguishes_traces() {
        let a = ScheduleTrace {
            warp_choice: false,
            eager: false,
            decisions: vec![Decision::Pc(0), Decision::Pc(1)],
        };
        let b = ScheduleTrace {
            warp_choice: false,
            eager: false,
            decisions: vec![Decision::Pc(1), Decision::Pc(0)],
        };
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
        // Pinned: the digest of a non-eager trace is the pre-litmus value —
        // corpus witnesses recorded before this field existed must not move.
        assert_eq!(
            ScheduleTrace::default().digest(),
            fnv1a(FNV1A_BASIS, &0u64.to_le_bytes())
        );
    }

    #[test]
    fn recording_then_replaying_reproduces_decisions() {
        let ctx = LaunchContext {
            grid_dim: 1,
            block_dim: 32,
            mode: ExecMode::Its,
        };
        let mut rec = RecordingScheduler::new(RandomScheduler::new(7, 0.4));
        rec.begin_launch(&ctx);
        let mut made = Vec::new();
        for i in 0..200 {
            made.push((rec.choose_pc(1 + i % 4), rec.choose_subdivision(2 + i % 5)));
        }
        let trace = rec.into_trace();
        assert!(!trace.warp_choice);

        let mut rep = ReplayScheduler::new(trace);
        assert!(!rep.wants_warp_choice());
        rep.begin_launch(&ctx);
        for (i, &(pc, sub)) in made.iter().enumerate() {
            assert_eq!(rep.choose_pc(1 + i % 4), pc);
            assert_eq!(rep.choose_subdivision(2 + i % 5), sub);
        }
        assert!(rep.finished());
    }

    #[test]
    #[should_panic(expected = "replay desynchronized")]
    fn replay_panics_on_decision_kind_mismatch() {
        let mut rep = ReplayScheduler::new(ScheduleTrace {
            warp_choice: false,
            eager: false,
            decisions: vec![Decision::Begin, Decision::KeepAll],
        });
        rep.begin_launch(&LaunchContext {
            grid_dim: 1,
            block_dim: 32,
            mode: ExecMode::Its,
        });
        let _ = rep.choose_pc(4);
    }

    #[test]
    #[should_panic(expected = "replay trace exhausted")]
    fn replay_panics_on_exhausted_trace() {
        let mut rep = ReplayScheduler::new(ScheduleTrace::default());
        rep.begin_launch(&LaunchContext {
            grid_dim: 1,
            block_dim: 32,
            mode: ExecMode::Its,
        });
    }

    /// Drives the enumerator through a synthetic decision tree shaped like
    /// a machine run: every run asks for the same sequence of choice
    /// points. The enumerator must visit the full cross product once each.
    #[test]
    fn enumerator_covers_cross_product_exactly_once() {
        let ctx = LaunchContext {
            grid_dim: 1,
            block_dim: 32,
            mode: ExecMode::Its,
        };
        let mut e = EnumeratingScheduler::new(16);
        let mut seen = std::collections::HashSet::new();
        loop {
            e.begin_launch(&ctx);
            // Shape: 2 warp options, then (1 — non-branching), then 3 pcs.
            let a = e.choose_warp(2);
            let skip = e.choose_pc(1);
            assert_eq!(skip, 0);
            let b = e.choose_pc(3);
            assert!(seen.insert((a, b)), "schedule ({a},{b}) visited twice");
            if !e.advance() {
                break;
            }
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(e.schedules_completed(), 6);
        assert!(!e.truncated());
    }

    /// Runs can be ragged: a branch choice may change how many further
    /// choice points the run encounters.
    #[test]
    fn enumerator_handles_ragged_depths() {
        let ctx = LaunchContext {
            grid_dim: 1,
            block_dim: 32,
            mode: ExecMode::Its,
        };
        let mut e = EnumeratingScheduler::new(16);
        let mut leaves = Vec::new();
        loop {
            e.begin_launch(&ctx);
            // Choice 0 → two more binary choices; choice 1 → leaf.
            if e.choose_pc(2) == 0 {
                let x = e.choose_pc(2);
                let y = e.choose_pc(2);
                leaves.push((0, x, y));
            } else {
                leaves.push((1, 9, 9));
            }
            if !e.advance() {
                break;
            }
        }
        leaves.sort_unstable();
        assert_eq!(
            leaves,
            vec![(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 9, 9)]
        );
        assert!(!e.truncated());
    }

    #[test]
    fn enumerator_flags_truncation_beyond_budget() {
        let ctx = LaunchContext {
            grid_dim: 1,
            block_dim: 32,
            mode: ExecMode::Its,
        };
        let mut e = EnumeratingScheduler::new(2);
        let mut runs = 0;
        loop {
            e.begin_launch(&ctx);
            for _ in 0..4 {
                let _ = e.choose_pc(2);
            }
            runs += 1;
            if !e.advance() {
                break;
            }
        }
        // Only the first 2 choice points branch: 4 paths, not 16.
        assert_eq!(runs, 4);
        assert!(e.truncated());
    }
}
