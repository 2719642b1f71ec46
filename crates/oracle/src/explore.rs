//! Bounded schedule × visibility exploration and the order-variance oracle.
//!
//! # Ground truth by order variance
//!
//! For the kernel family of [`crate::spec`], control flow is
//! schedule-independent, so the k-th dynamic access of a given thread is
//! the same static operation in every schedule — an access *instance*
//! `(block, tid, ordinal)` is well-defined across the whole schedule
//! space. Two conflicting instances race **iff the enumeration observes
//! them in both orders**: if every feasible schedule runs them in one
//! order, the program's synchronization (barriers blocking progress)
//! enforces that order, and the pair is properly synchronized. The
//! enumeration executes real machine semantics, so barrier blocking,
//! exit-releases, and ITS interleaving are all accounted for without a
//! happens-before model — the verdict is definitionally ground truth as
//! long as the space was covered completely ([`Report::complete`]).
//!
//! # Partial-order reduction
//!
//! The enumerator runs eager-invisible: between two visible operations
//! (global accesses and fences) a thread runs without branching the
//! schedule tree, so only the order of visible operations is enumerated.
//! Invisible instructions touch no shared state, so every order of
//! visible operations — and with it every racing pair in both orders —
//! is still reached. The test module checks this against an exhaustive
//! DFS over every instruction interleaving.
//!
//! # Conflict rules
//!
//! Mirrors the paper's treatment (§3, §6.2): load/load never conflicts;
//! plain-write pairs and atomic-vs-plain pairs always do; atomic/atomic
//! pairs conflict only across blocks when either side's scope is
//! insufficient (`.block` scope — the AS class). Device-scope atomic
//! pairs are synchronization, not races, even though they commute in both
//! orders.

use std::collections::{BTreeMap, HashMap};

use gpu_sim::error::SimError;
use gpu_sim::hook::{ExecMode, Hook};
use gpu_sim::ir::{AtomOp, Instr, Scope};
use gpu_sim::kernel::Kernel;
use gpu_sim::machine::{Gpu, GpuConfig};
use gpu_sim::prelude::{
    EnumeratingScheduler, RandomScheduler, RecordingScheduler, ScheduleTrace, Scheduler,
};

use crate::observer::{ObservedAccess, Observer};
use crate::spec::{Cond, Placement, Spec, NUM_SLOTS};

/// Maximum branching decisions per schedule (DFS depth budget).
const MAX_DECISIONS: usize = 128;
/// Per-schedule step watchdog.
const MAX_STEPS: u64 = 10_000;

/// Bounds on the exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum schedules to visit before giving up on completeness.
    pub max_schedules: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 200_000,
        }
    }
}

/// The GPU configuration for every oracle run: one SM per actor (so each
/// cross-block actor owns a private L1 and weak visibility has cross-SM
/// effects to enumerate), a tiny backing store (the slot pool is 4
/// words), the `MAX_STEPS` watchdog, load values recorded for assertion
/// evaluation, and — when `weak` — the versioned relaxed-visibility
/// memory model.
#[must_use]
pub fn gpu_config(num_actors: u32, weak: bool) -> GpuConfig {
    GpuConfig {
        num_sms: num_actors.max(2) as usize,
        mem_words: 64,
        max_steps: MAX_STEPS,
        mode: ExecMode::Its,
        // Unused under an EnumeratingScheduler; relevant only when the
        // same config drives random-path detector runs.
        seed: 0,
        its_split_prob: 0.3,
        weak_visibility: weak,
        record_load_values: true,
        ..GpuConfig::default()
    }
}

/// Launches `kernel`, built from `spec`, once on a fresh device of
/// [`gpu_config`] with the slot pool allocated and `hook` attached, under
/// `sched` or, given `None`, the device's random scheduler seeded `seed`.
/// Returns the device and the pool's base address. Every oracle run —
/// enumeration, witness replay, detector run — launches here.
pub(crate) fn launch(
    spec: &Spec,
    kernel: &Kernel,
    weak: bool,
    seed: u64,
    hook: &mut dyn Hook,
    sched: Option<&mut dyn Scheduler>,
) -> Result<(Gpu, u32), SimError> {
    let cfg = GpuConfig {
        seed,
        ..gpu_config(spec.actors.len() as u32, weak)
    };
    let mut random = RandomScheduler::new(cfg.seed, cfg.its_split_prob);
    let mut gpu = Gpu::new(cfg);
    let buf = gpu
        .alloc(usize::from(NUM_SLOTS))
        .expect("oracle slot pool fits");
    let (grid, block) = spec.grid_block();
    gpu.launch_with(
        kernel,
        grid,
        block,
        &[buf],
        hook,
        sched.unwrap_or(&mut random),
    )?;
    Ok((gpu, buf))
}

/// One racing instance pair, classified by the accessors' relationship.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OracleRace {
    /// `"ITS"` (same warp), `"BR"` (same block, different warp),
    /// `"DR"` (different blocks), or `"AS"` (atomic/atomic across blocks
    /// with insufficient scope) — the paper's Table 4 codes.
    pub kind: &'static str,
    /// Byte address raced on.
    pub addr: u32,
    /// `(block, tid_in_block, pc)` of the two instances.
    pub a: (u32, u32, usize),
    pub b: (u32, u32, usize),
}

/// Verdict on the spec's final-state assertion clause over the explored
/// schedule × visibility space.
#[derive(Debug, Clone)]
pub struct AssertionVerdict {
    /// Some run satisfied every conjunct.
    pub reachable: bool,
    /// Some *sequentially consistent* run satisfied it (a run whose loads
    /// are all explained by a single coherent interleaving).
    pub sc_reachable: bool,
    /// Trace of the first satisfying run.
    pub witness: Option<ScheduleTrace>,
}

/// One distinct final register state of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Reached by at least one SC-equivalent run.
    pub sc: bool,
    /// Reached by at least one non-SC (weak-visibility) run.
    pub weak: bool,
    /// Trace of the first run reaching this outcome.
    pub witness: ScheduleTrace,
}

/// The oracle's verdict over the explored space: race analysis plus the
/// outcome census and the assertion verdict.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether any conflicting pair was observed in both orders.
    pub racy: bool,
    /// Whether the whole bounded space was covered. Racy verdicts are
    /// sound regardless; clean verdicts are only conclusive when complete.
    pub complete: bool,
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct racing pairs.
    pub races: Vec<OracleRace>,
    /// A schedule exhibiting one racing pair in one order.
    pub witness: Option<ScheduleTrace>,
    /// A schedule exhibiting the *same* pair in the opposite order.
    /// Dynamic detectors can be order-sensitive (e.g. R1 fires only when
    /// the insufficient-scope atomic precedes the plain access), so a fair
    /// false-negative verdict must replay both.
    pub counter_witness: Option<ScheduleTrace>,
    /// Distinct final register states, keyed by the observed values of
    /// every plain load, concatenated in (actor, program-order) order.
    pub outcomes: BTreeMap<Vec<u32>, Outcome>,
    /// `None` when the spec has no assertion clause.
    pub assertion: Option<AssertionVerdict>,
}

impl Report {
    /// Race kind codes, deduplicated, sorted.
    #[must_use]
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut k: Vec<&'static str> = self.races.iter().map(|r| r.kind).collect();
        k.sort_unstable();
        k.dedup();
        k
    }
}

/// An access instance: `(block, tid_in_block, per-thread ordinal)`.
type Instance = (u32, u32, u32);

struct PairState {
    /// Trace of the schedule where "lower instance first" was observed.
    fwd: Option<ScheduleTrace>,
    /// Trace of the schedule with the opposite order.
    rev: Option<ScheduleTrace>,
    race: OracleRace,
}

impl PairState {
    fn racy(&self) -> bool {
        self.fwd.is_some() && self.rev.is_some()
    }
}

type Pairs = HashMap<(Instance, Instance), PairState>;

/// Explores the schedule × visibility space of `spec` under the
/// eager-invisible enumerator (up to the bounds) and returns the
/// ground-truth verdict. With `weak = false` the machine keeps the strong
/// (per-run coherent L1) model and the exploration is pure interleaving
/// enumeration over visible operations.
///
/// # Panics
/// Panics on malformed specs (validate first) or simulator faults — the
/// spec family is fault-free by construction, so a fault is a generator
/// or simulator bug.
#[must_use]
pub fn explore(spec: &Spec, cfg: &ExploreConfig, weak: bool) -> Report {
    spec.validate()
        .unwrap_or_else(|e| panic!("explore on invalid spec: {e}"));
    let kernel = spec.build();
    let mut enumerator = EnumeratingScheduler::new_eager(MAX_DECISIONS);
    let mut pairs = Pairs::new();
    let mut outcomes: BTreeMap<Vec<u32>, Outcome> = BTreeMap::new();
    let mut assertion = (!spec.assertion.is_empty()).then_some(AssertionVerdict {
        reachable: false,
        sc_reachable: false,
        witness: None,
    });
    let hit_cap;

    loop {
        let mut obs = Observer::default();
        let mut rec = RecordingScheduler::new(&mut enumerator);
        let (gpu, buf) =
            launch(spec, &kernel, weak, 0, &mut obs, Some(&mut rec)).unwrap_or_else(|e| {
                panic!(
                    "oracle kernel {} faulted during enumeration: {e}",
                    spec.to_compact_string()
                )
            });
        let trace = rec.into_trace();

        accumulate_orders(&obs.events, &trace, &mut pairs);

        let regs = collect_regs(spec, &obs, buf);
        let sc = run_is_sc(&kernel, &obs, buf);
        let key: Vec<u32> = regs.iter().flatten().copied().collect();
        let out = outcomes.entry(key).or_insert_with(|| Outcome {
            sc: false,
            weak: false,
            witness: trace.clone(),
        });
        if sc {
            out.sc = true;
        } else {
            out.weak = true;
        }

        if let Some(av) = &mut assertion {
            let final_mem = gpu.read_slice(buf, usize::from(NUM_SLOTS));
            if eval_assertion(spec, &regs, &final_mem) {
                av.reachable = true;
                av.sc_reachable |= sc;
                av.witness.get_or_insert_with(|| trace.clone());
            }
        }

        if !enumerator.advance() {
            hit_cap = false;
            break;
        }
        if enumerator.schedules_completed() >= cfg.max_schedules {
            hit_cap = true;
            break;
        }
    }

    let (races, witness, counter_witness) = racy_pairs(pairs);
    Report {
        racy: !races.is_empty(),
        complete: !hit_cap && !enumerator.truncated(),
        schedules: enumerator.schedules_completed(),
        races,
        witness,
        counter_witness,
        outcomes,
        assertion,
    }
}

/// The racing pairs of an exploration, plus the witness and
/// counter-witness of the racy pair with the smallest key (a
/// deterministic choice).
fn racy_pairs(
    pairs: Pairs,
) -> (
    Vec<OracleRace>,
    Option<ScheduleTrace>,
    Option<ScheduleTrace>,
) {
    let mut racy: Vec<((Instance, Instance), PairState)> =
        pairs.into_iter().filter(|(_, p)| p.racy()).collect();
    racy.sort_by_key(|(k, _)| *k);
    let (witness, counter_witness) = racy
        .first()
        .map_or((None, None), |(_, p)| (p.fwd.clone(), p.rev.clone()));
    let races = racy.into_iter().map(|(_, p)| p.race).collect();
    (races, witness, counter_witness)
}

/// Folds one schedule's event sequence into the cross-schedule order map,
/// remembering `trace` as the witness for each newly observed direction.
fn accumulate_orders(events: &[ObservedAccess], trace: &ScheduleTrace, pairs: &mut Pairs) {
    // Per-thread ordinals; the family's control flow is
    // schedule-independent, so ordinals identify instances across runs.
    let mut ordinals: HashMap<(u32, u32), u32> = HashMap::new();
    let mut instances: Vec<(Instance, &ObservedAccess)> = Vec::with_capacity(events.len());
    for e in events {
        let ord = ordinals.entry((e.block, e.tid_in_block)).or_insert(0);
        instances.push(((e.block, e.tid_in_block, *ord), e));
        *ord += 1;
    }

    for i in 0..instances.len() {
        for j in (i + 1)..instances.len() {
            let (ia, ea) = instances[i];
            let (ib, eb) = instances[j];
            if !conflicts(ea, eb) {
                continue;
            }
            // Canonical unordered key; `fwd` means "lower instance first".
            let (key, first_is_lower) = if ia <= ib {
                ((ia, ib), true)
            } else {
                ((ib, ia), false)
            };
            let st = pairs.entry(key).or_insert_with(|| PairState {
                fwd: None,
                rev: None,
                race: classify(ea, eb),
            });
            if ea.step == eb.step {
                // Same warp split: simultaneous conflicting accesses
                // (cannot occur in the current family, handled for
                // robustness).
                st.fwd.get_or_insert_with(|| trace.clone());
                st.rev.get_or_insert_with(|| trace.clone());
            } else if first_is_lower {
                st.fwd.get_or_insert_with(|| trace.clone());
            } else {
                st.rev.get_or_insert_with(|| trace.clone());
            }
        }
    }
}

/// Paper-faithful conflict predicate over two dynamic accesses.
fn conflicts(a: &ObservedAccess, b: &ObservedAccess) -> bool {
    if a.block == b.block && a.tid_in_block == b.tid_in_block {
        return false;
    }
    if a.addr != b.addr {
        return false;
    }
    if !a.is_write && !b.is_write {
        return false;
    }
    // An atomic paired with another atomic or with a plain *load* is safe
    // at sufficient scope: RMWs mutually exclude, and word-sized loads of
    // an atomically-updated word are hardware-atomic (check P6 — the flag
    // polling idiom). Only an insufficient (.block) scope used across
    // blocks leaves a race (R1). A plain *store* on either side always
    // conflicts.
    let atomic_protected = (a.is_atomic && (b.is_atomic || !b.is_write))
        || (b.is_atomic && (a.is_atomic || !a.is_write));
    if atomic_protected {
        return a.block != b.block
            && (a.scope == Some(Scope::Block) || b.scope == Some(Scope::Block));
    }
    true
}

/// Classifies a racing pair by accessor relationship (Table 4 codes).
fn classify(a: &ObservedAccess, b: &ObservedAccess) -> OracleRace {
    const WARP: u32 = gpu_sim::ir::WARP_SIZE as u32;
    let kind = if a.block != b.block {
        // A cross-block race involving a block-scope atomic is the
        // insufficient-scope class (R1); any other cross-block race is a
        // plain device race (R4).
        if a.scope == Some(Scope::Block) || b.scope == Some(Scope::Block) {
            "AS"
        } else {
            "DR"
        }
    } else if a.tid_in_block / WARP == b.tid_in_block / WARP {
        "ITS"
    } else {
        "BR"
    };
    OracleRace {
        kind,
        addr: a.addr,
        a: (a.block, a.tid_in_block, a.pc),
        b: (b.block, b.tid_in_block, b.pc),
    }
}

/// Groups a run's observed load values by actor, in program order. The
/// family's control flow is schedule-independent, so every run of a spec
/// yields `spec.num_loads(a)` values for actor `a`.
fn collect_regs(spec: &Spec, obs: &Observer, buf: u32) -> Vec<Vec<u32>> {
    let mut regs: Vec<Vec<u32>> = vec![Vec::new(); spec.actors.len()];
    for l in &obs.loads {
        let actor = match spec.placement {
            Placement::CrossBlock => l.block as usize,
            Placement::SameWarp => l.tid_in_block as usize,
        };
        debug_assert!(l.addr >= buf && actor < regs.len());
        regs[actor].push(l.value);
    }
    for (a, r) in regs.iter().enumerate() {
        debug_assert_eq!(r.len(), spec.num_loads(a), "load count drifted");
    }
    regs
}

/// Whether a run is explainable by a single coherent interleaving: replay
/// the observed event order through a sequentially consistent shadow
/// memory (using the kernel's own code to interpret each access) and
/// check every load saw exactly the shadow value. A mismatch means some
/// load took a stale or early line — weak-visibility behaviour.
fn run_is_sc(kernel: &Kernel, obs: &Observer, buf: u32) -> bool {
    let mut shadow = [0u32; NUM_SLOTS as usize];
    let mut next_load = 0usize;
    for e in &obs.events {
        let slot = ((e.addr - buf) / 4) as usize;
        match &kernel.code[e.pc] {
            Instr::St { .. } => shadow[slot] = 1,
            Instr::Atom {
                op: AtomOp::Add, ..
            } => shadow[slot] += 1,
            Instr::Atom {
                op: AtomOp::Exch, ..
            } => shadow[slot] = 1,
            Instr::Atom { op, .. } => unreachable!("oracle family has no {op:?}"),
            Instr::Ld { .. } => {
                let observed = obs.loads[next_load].value;
                next_load += 1;
                if observed != shadow[slot] {
                    return false;
                }
            }
            other => unreachable!("non-memory instr {other:?} in event stream"),
        }
    }
    true
}

/// Evaluates the assertion conjunction against one run's registers and
/// final coherent memory.
fn eval_assertion(spec: &Spec, regs: &[Vec<u32>], final_mem: &[u32]) -> bool {
    spec.assertion.iter().all(|c| match *c {
        Cond::Reg { actor, load, value } => regs[actor as usize][load as usize] == value,
        Cond::Mem { loc, value } => final_mem[loc as usize] == value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::generate_specs;

    /// The reference the POR explorer is checked against: a DFS over
    /// *every* instruction interleaving (the non-eager enumerator) on the
    /// strong machine, folded through the same `accumulate_orders`.
    fn exhaustive(spec: &Spec, cfg: &ExploreConfig) -> Report {
        let kernel = spec.build();
        let mut enumerator = EnumeratingScheduler::new(MAX_DECISIONS);
        let mut pairs = Pairs::new();
        let hit_cap;
        loop {
            let mut obs = Observer::default();
            let mut rec = RecordingScheduler::new(&mut enumerator);
            launch(spec, &kernel, false, 0, &mut obs, Some(&mut rec)).unwrap();
            accumulate_orders(&obs.events, &rec.into_trace(), &mut pairs);
            if !enumerator.advance() {
                hit_cap = false;
                break;
            }
            if enumerator.schedules_completed() >= cfg.max_schedules {
                hit_cap = true;
                break;
            }
        }
        let (races, witness, counter_witness) = racy_pairs(pairs);
        Report {
            racy: !races.is_empty(),
            complete: !hit_cap && !enumerator.truncated(),
            schedules: enumerator.schedules_completed(),
            races,
            witness,
            counter_witness,
            outcomes: BTreeMap::new(),
            assertion: None,
        }
    }

    fn run(s: &str) -> Report {
        explore(&Spec::parse(s).unwrap(), &ExploreConfig::default(), true)
    }

    fn sorted_races(r: &Report) -> Vec<OracleRace> {
        let mut v = r.races.clone();
        v.sort();
        v
    }

    /// The race entries of the pinned corpus (`tests/corpus/oracle.corpus`).
    const RACE_CORPUS: [&str; 13] = [
        "v2;CB;Sx/Lx",
        "v2;CB;Su.Ly/Su",
        "v2;SW;Sy/Ly",
        "v2;SW;w.Sx/w.Lx",
        "v2;SW;Sx.w/w.Lx",
        "v2;SW;Sx.t/t.Lx",
        "v2;CB;aBx/aBx",
        "v2;CB;aDx/aDx",
        "v2;CB;aDz/Lz",
        "v2;CB;aBy/Ly",
        "v2;SW;Sx.fD/Lx",
        "v2;SW;Lx/Lx",
        "v2;CB;Lx.Sy/Lx.Sz",
    ];

    #[test]
    fn por_matches_exhaustive_search() {
        let cfg = ExploreConfig::default();
        let specs = RACE_CORPUS
            .iter()
            .map(|s| Spec::parse(s).unwrap())
            .chain(generate_specs(256, 0x1C0FFEE));
        let mut racy = 0usize;
        for spec in specs {
            let label = spec.to_compact_string();
            let reference = exhaustive(&spec, &cfg);
            assert!(reference.complete, "{label}: reference incomplete");
            for weak in [false, true] {
                let por = explore(&spec, &cfg, weak);
                assert!(por.complete, "{label}: POR incomplete (weak={weak})");
                assert_eq!(por.racy, reference.racy, "{label} (weak={weak})");
                assert_eq!(
                    sorted_races(&por),
                    sorted_races(&reference),
                    "{label} (weak={weak})"
                );
                assert!(por.schedules <= reference.schedules, "{label}");
            }
            racy += usize::from(reference.racy);
        }
        // Both verdicts are exercised, or the comparison is vacuous.
        assert!(racy > 20 && racy < 250, "{racy} racy specs");
    }

    /// The full-interleaving pin that predates the eager enumerator: the
    /// two single-thread blocks of `Sx.Ly/Lx` run 8- and 6-instruction
    /// straight-line paths, so the reference DFS visits exactly
    /// C(14,8) = 3003 schedules, and its witness bytes are pinned.
    #[test]
    fn exhaustive_reference_pin() {
        let spec = Spec::parse("v2;CB;Sx.Ly/Lx").unwrap();
        let r = exhaustive(&spec, &ExploreConfig::default());
        assert!(r.complete && r.racy);
        assert_eq!(r.schedules, 3003);
        let witness = r.witness.expect("racy exploration has a witness");
        assert!(!witness.eager, "reference witnesses are non-eager");
        assert_eq!(witness.digest(), 0x9f1a_1e4d_9d10_6c85);
    }

    #[test]
    fn same_warp_store_load_is_an_its_race() {
        let r = run("v2;SW;Sx/Lx");
        assert!(r.complete);
        assert!(r.racy);
        assert_eq!(r.kinds(), vec!["ITS"]);
        assert!(r.witness.is_some());
    }

    #[test]
    fn cross_block_store_store_is_a_dr_race() {
        let r = run("v2;CB;Sz/Sz");
        assert!(r.complete);
        assert!(r.racy);
        assert_eq!(r.kinds(), vec!["DR"]);
    }

    #[test]
    fn block_scope_atomics_across_blocks_are_an_as_race() {
        let r = run("v2;CB;aBy/aBy");
        assert!(r.complete && r.racy);
        assert_eq!(r.kinds(), vec!["AS"]);

        // Device scope is sufficient: both orders occur, but atomics
        // synchronize — clean.
        let r = run("v2;CB;aDy/aDy");
        assert!(r.complete);
        assert!(!r.racy);
    }

    #[test]
    fn disjoint_slots_and_read_only_sharing_are_clean() {
        let r = run("v2;SW;Sx/Sy");
        assert!(r.complete && !r.racy);
        let r = run("v2;CB;Lx/Lx");
        assert!(r.complete && !r.racy);
    }

    #[test]
    fn aligned_syncwarp_orders_the_pair() {
        // store ; syncwarp   ||   syncwarp ; load  — the barrier blocks
        // the loader until the storer arrives, so only one order is
        // feasible: clean.
        let r = run("v2;SW;Sx.w/w.Lx");
        assert!(r.complete, "space must still be fully covered");
        assert!(!r.racy, "barrier-ordered pair must not be a race");

        // Both accesses on the same side of the barrier: still racy.
        let r = run("v2;SW;Sx.w/Lx.w");
        assert!(r.complete && r.racy);
    }

    #[test]
    fn aligned_syncthreads_orders_same_warp_actors_too() {
        let r = run("v2;SW;Su.t/t.Lu");
        assert!(r.complete && !r.racy);
    }

    #[test]
    fn schedule_count_is_exactly_the_interleaving_count() {
        fn binomial(n: u64, k: u64) -> u64 {
            let mut r = 1u64;
            for i in 0..k {
                r = r * (n - i) / (i + 1);
            }
            r
        }
        let cfg = ExploreConfig::default();
        // Cross-block: the two single-thread blocks run independent
        // straight-line paths of lengths m and n (prologue included), and
        // the full schedule space is every merge of the two sequences:
        // C(m + n, m). The reference DFS must count exactly that many.
        let spec = Spec::parse("v2;CB;Sx.Ly/Lx").unwrap();
        let (m, n) = (spec.path_lengths()[0], spec.path_lengths()[1]);
        let r = exhaustive(&spec, &cfg);
        assert!(r.complete);
        assert_eq!(
            r.schedules,
            binomial((m + n) as u64, m as u64),
            "cross-block schedule space must be all C({m}+{n}, {m}) merges"
        );

        // Same-warp: the 4-instruction prologue is converged (a single
        // split with one PC — no choice), so only the two diverged
        // regions interleave: C(r0 + r1, r0) with region lengths
        // r = src-imm? + ops + exit.
        let spec = Spec::parse("v2;SW;Sx.Ly/Lx").unwrap();
        let r0 = 1 + 2 + 1; // imm + 2 ops + exit
        let r1 = 2; // load + exit
        let rep = exhaustive(&spec, &cfg);
        assert!(rep.complete);
        assert_eq!(rep.schedules, binomial((r0 + r1) as u64, r0 as u64));

        // Under POR only the visible ops interleave: C(2 + 1, 1).
        let por = explore(&Spec::parse("v2;CB;Sx.Ly/Lx").unwrap(), &cfg, false);
        assert_eq!(por.schedules, binomial(3, 1));
    }

    #[test]
    fn truncation_is_reported_as_incomplete() {
        let spec = Spec::parse("v2;CB;Sx.Ly/Lx").unwrap();
        let cfg = ExploreConfig { max_schedules: 2 };
        let r = explore(&spec, &cfg, false);
        assert!(!r.complete);
        assert_eq!(r.schedules, 2);
        let r = exhaustive(&spec, &cfg);
        assert!(!r.complete);
        assert_eq!(r.schedules, 2);
    }
}
