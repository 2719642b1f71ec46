//! Enumeration-completeness tests for the oracle's explorer on litmus specs:
//! exact schedule and outcome counts for the classic shapes, checked
//! against hand-computed values.
//!
//! Schedule counts under the eager-invisible POR are pure multinomials
//! over *visible* ops (loads, stores, atomics, fences): `n` actors with
//! `k_i` visible ops each admit `(Σk_i)! / Πk_i!` interleavings. Under
//! weak visibility the DFS additionally branches on each plain load's
//! visibility candidates, so schedule counts grow data-dependently, but
//! the *outcome* sets are what the model pins down: which register
//! valuations are reachable at all, and which only via non-SC runs.

use iguard_repro::gpu_sim::ir::Scope;
use iguard_repro::oracle::explore::{explore, ExploreConfig, Report};
use iguard_repro::oracle::spec::{Placement, Spec};

const CB: Placement = Placement::CrossBlock;

fn run(spec: &Spec, weak: bool) -> Report {
    let r = explore(spec, &ExploreConfig::default(), weak);
    assert!(
        r.complete,
        "{} must enumerate completely",
        spec.to_compact_string()
    );
    r
}

/// Outcome keys are flattened per-actor plain-load register files.
fn outcome_keys(r: &Report) -> Vec<Vec<u32>> {
    r.outcomes.keys().cloned().collect()
}

fn weak_only(r: &Report, key: &[u32]) -> bool {
    let o = &r.outcomes[key];
    !o.sc && o.weak
}

// ---------------------------------------------------------------------
// Strong machine: schedule counts are exact multinomials, and cross-SM
// stores are invisible to plain loads before a fence writeback, so every
// unfenced shape has exactly one outcome (all loads read 0).
// ---------------------------------------------------------------------

#[test]
fn strong_schedule_counts_are_multinomials() {
    // MP: Sx.Sy / Ly.Lx = 2+2 visible ops -> C(4,2) = 6.
    assert_eq!(run(&Spec::mp(CB, None), false).schedules, 6);
    // SB and LB have the same 2+2 shape.
    assert_eq!(run(&Spec::sb(CB, None), false).schedules, 6);
    assert_eq!(run(&Spec::lb(CB, None), false).schedules, 6);
    // MP with fences: fences are visible, 3+3 -> C(6,3) = 20.
    assert_eq!(run(&Spec::mp(CB, Some(Scope::Device)), false).schedules, 20);
    assert_eq!(run(&Spec::mp(CB, Some(Scope::Block)), false).schedules, 20);
    // IRIW: 1+1+2+2 -> 6!/(1!1!2!2!) = 180.
    assert_eq!(run(&Spec::iriw(CB, None), false).schedules, 180);
    // IRIW with reader fences: 1+1+3+3 -> 8!/(1!1!3!3!) = 1120.
    assert_eq!(
        run(&Spec::iriw(CB, Some(Scope::Device)), false).schedules,
        1120
    );
    // WRC: 1+2+2 -> 5!/(1!2!2!) = 30; fenced 1+3+3 -> 7!/(1!3!3!) = 140.
    assert_eq!(run(&Spec::wrc(CB, None), false).schedules, 30);
    assert_eq!(
        run(&Spec::wrc(CB, Some(Scope::Device)), false).schedules,
        140
    );
}

#[test]
fn strong_machine_hides_unfenced_cross_sm_stores() {
    // Without a fence no store ever reaches another SM before kernel end,
    // so each unfenced shape has exactly one outcome: all-zero reads.
    for spec in [
        Spec::mp(CB, None),
        Spec::lb(CB, None),
        Spec::iriw(CB, None),
        Spec::wrc(CB, None),
    ] {
        let r = run(&spec, false);
        assert_eq!(outcome_keys(&r).len(), 1, "{}", spec.to_compact_string());
        assert!(outcome_keys(&r)[0].iter().all(|&v| v == 0));
    }
    // SB's single outcome (0,0) *is* the forbidden one — the strong
    // machine is already non-coherent across SMs — and the shadow-replay
    // classifier correctly marks it non-SC.
    let sb = run(&Spec::sb(CB, None), false);
    assert_eq!(outcome_keys(&sb), vec![vec![0, 0]]);
    assert!(weak_only(&sb, &[0, 0]));
    // A device fence after each store makes the writeback visible: MP
    // gains the (0,1) outcome where the reader sees x but not yet y.
    let mp_fd = run(&Spec::mp(CB, Some(Scope::Device)), false);
    assert_eq!(outcome_keys(&mp_fd), vec![vec![0, 0], vec![0, 1]]);
}

// ---------------------------------------------------------------------
// Weak machine: outcome sets for the classic shapes, hand-computed.
// Register order is actors in spec order, each actor's plain loads in
// program order; MP/SB reader registers are (r_first, r_second).
// ---------------------------------------------------------------------

#[test]
fn weak_mp_admits_exactly_the_relaxed_outcomes() {
    // MP = Sx.Sy / Ly.Lx, assertion forbids r0=1 (saw y) & r1=0 (stale x).
    // All four valuations are reachable; (1,0) only via a non-SC run.
    let r = run(&Spec::mp(CB, None), true);
    assert_eq!(r.schedules, 13);
    assert_eq!(
        outcome_keys(&r),
        vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]
    );
    assert!(weak_only(&r, &[1, 0]));
    let a = r.assertion.as_ref().unwrap();
    assert!(a.reachable && !a.sc_reachable);
}

#[test]
fn weak_mp_block_fence_is_insufficient() {
    // A .cta-scope fence does not write back to L2, so the forbidden
    // (1,0) outcome is still reachable: the fence-scope anomaly.
    let r = run(&Spec::mp(CB, Some(Scope::Block)), true);
    assert_eq!(outcome_keys(&r).len(), 4);
    assert!(weak_only(&r, &[1, 0]));
    assert!(r.assertion.as_ref().unwrap().reachable);
}

#[test]
fn weak_mp_device_fence_restores_order() {
    // fD between the stores flushes x before y ever becomes visible, so
    // (1,0) disappears: exactly {(0,0), (0,1), (1,1)} remain.
    let r = run(&Spec::mp(CB, Some(Scope::Device)), true);
    assert_eq!(outcome_keys(&r), vec![vec![0, 0], vec![0, 1], vec![1, 1]]);
    let a = r.assertion.as_ref().unwrap();
    assert!(!a.reachable && !a.sc_reachable);
}

#[test]
fn weak_sb_all_four_outcomes_and_fence_removes_forbidden() {
    // SB = Sx.Ly / Sy.Lx; forbidden outcome is (0,0) (both miss the other
    // store). Reachable weak-only without fences; gone with fD.
    let r = run(&Spec::sb(CB, None), true);
    assert_eq!(outcome_keys(&r).len(), 4);
    assert!(weak_only(&r, &[0, 0]));
    assert!(r.assertion.as_ref().unwrap().reachable);

    let fenced = run(&Spec::sb(CB, Some(Scope::Device)), true);
    assert_eq!(
        outcome_keys(&fenced),
        vec![vec![0, 1], vec![1, 0], vec![1, 1]]
    );
    assert!(!fenced.assertion.as_ref().unwrap().reachable);
}

#[test]
fn weak_lb_forbidden_outcome_is_unreachable() {
    // LB = Lx.Sy / Ly.Sx. Loads precede the cross stores in program
    // order and the simulator never reorders within a thread, so (1,1)
    // is unreachable even under weak visibility: exactly 3 outcomes.
    let r = run(&Spec::lb(CB, None), true);
    assert_eq!(outcome_keys(&r), vec![vec![0, 0], vec![0, 1], vec![1, 0]]);
    assert!(!r.assertion.as_ref().unwrap().reachable);
}

#[test]
fn weak_iriw_sees_all_sixteen_outcomes() {
    // IRIW = Sx / Sy / Lx.Ly / Ly.Lx. With per-SM visibility every one of
    // the 2^4 reader valuations is reachable; the IRIW-forbidden one
    // (1,0,1,0) — the two readers disagree on the store order — only via
    // a non-SC run.
    let r = run(&Spec::iriw(CB, None), true);
    assert_eq!(r.schedules, 974);
    assert_eq!(outcome_keys(&r).len(), 16);
    assert!(weak_only(&r, &[1, 0, 1, 0]));
    let a = r.assertion.as_ref().unwrap();
    assert!(a.reachable && !a.sc_reachable);
}

#[test]
fn weak_iriw_reader_fences_do_not_restore_store_atomicity() {
    // Fences in the readers only order each reader's own accesses; the
    // writers never flush, so the forbidden outcome survives — our fences
    // are non-cumulative, i.e. the model is not multi-copy atomic.
    let r = run(&Spec::iriw(CB, Some(Scope::Device)), true);
    assert_eq!(outcome_keys(&r).len(), 16);
    assert!(weak_only(&r, &[1, 0, 1, 0]));
    assert!(r.assertion.as_ref().unwrap().reachable);
}

#[test]
fn weak_wrc_shows_non_cumulative_fences() {
    // WRC = Sx / Lx.Sy / Ly.Lx; forbidden (1,1,0) requires actor 2 to see
    // actor 1's y yet miss actor 0's x. Reachable weak-only, and a fence
    // in actors 1 and 2 does not help (actor 0 never flushes x).
    for fence in [None, Some(Scope::Device)] {
        let r = run(&Spec::wrc(CB, fence), true);
        assert_eq!(outcome_keys(&r).len(), 8, "fence={fence:?}");
        assert!(weak_only(&r, &[1, 1, 0]));
        assert!(r.assertion.as_ref().unwrap().reachable);
    }
}

#[test]
fn same_warp_placement_is_always_sequentially_consistent() {
    // A single warp on one SM shares one L1: no weak visibility choices
    // exist, every run classifies SC, and the forbidden outcomes stay
    // unreachable even with the weak machine enabled.
    for spec in [
        Spec::mp(Placement::SameWarp, None),
        Spec::sb(Placement::SameWarp, None),
    ] {
        let r = run(&spec, true);
        assert_eq!(r.schedules, 6, "{}", spec.to_compact_string());
        assert_eq!(outcome_keys(&r).len(), 3);
        for o in r.outcomes.values() {
            assert!(o.sc && !o.weak);
        }
        assert!(!r.assertion.as_ref().unwrap().reachable);
    }
}

#[test]
fn stale_reread_anomaly_is_weak_only() {
    // Beyond-MP shape: the reader loads x (caching a clean 0), snoops
    // y=1, then re-reads x from its own stale clean line — despite the
    // writer's device fence. Assertion r1=1 & r2=0 is weak-only.
    let spec = Spec::parse("v2;CB;Sx.fD.Sy/Lx.Ly.Lx;?1:r1=1&1:r2=0").unwrap();
    let strong = run(&spec, false);
    assert!(!strong.assertion.as_ref().unwrap().reachable);
    let weak = run(&spec, true);
    assert_eq!(outcome_keys(&weak).len(), 6);
    assert!(weak_only(&weak, &[0, 1, 0]));
    let a = weak.assertion.as_ref().unwrap();
    assert!(a.reachable && !a.sc_reachable);
}
