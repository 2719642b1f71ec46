//! Greedy spec shrinking: find a minimal kernel that still diverges.
//!
//! A campaign failure is only useful if a human can stare at it, so before
//! a divergent spec enters the corpus it is shrunk: repeatedly delete a
//! piece of the spec and keep the deletion whenever the caller's predicate
//! (typically "still has an unexplained divergence") holds. The loop runs
//! to a fixpoint, so the result is 1-minimal: removing any single
//! remaining piece changes the verdict.

use crate::spec::{Cond, Op, Spec};

/// Shrinks `spec` while `still_interesting` holds. Three move kinds,
/// tried in order of how much they delete:
///
/// 1. drop a whole actor (down to 2), renumbering assertion actor refs;
/// 2. drop one op from one actor (never emptying it), dropping/renumbering
///    assertion refs to the deleted load;
/// 3. drop one assertion conjunct.
///
/// Every candidate passed to the predicate is structurally valid, and the
/// returned spec always satisfies the predicate (assuming the input does).
pub fn shrink<F>(spec: &Spec, mut still_interesting: F) -> Spec
where
    F: FnMut(&Spec) -> bool,
{
    let mut best = spec.clone();
    loop {
        let mut improved = false;
        'outer: {
            // Move 1: delete an entire actor.
            if best.actors.len() > 2 {
                for a in 0..best.actors.len() {
                    let cand = drop_actor(&best, a);
                    if still_interesting(&cand) {
                        best = cand;
                        improved = true;
                        break 'outer;
                    }
                }
            }
            // Move 2: delete one op.
            for a in 0..best.actors.len() {
                if best.actors[a].len() == 1 {
                    continue;
                }
                for i in 0..best.actors[a].len() {
                    let cand = drop_op(&best, a, i);
                    if still_interesting(&cand) {
                        best = cand;
                        improved = true;
                        break 'outer;
                    }
                }
            }
            // Move 3: delete one assertion conjunct.
            for c in 0..best.assertion.len() {
                let mut cand = best.clone();
                cand.assertion.remove(c);
                if still_interesting(&cand) {
                    best = cand;
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            debug_assert!(best.validate().is_ok());
            return best;
        }
    }
}

/// `spec` minus actor `a`, with assertion actor refs renumbered and refs
/// to the deleted actor dropped.
fn drop_actor(spec: &Spec, a: usize) -> Spec {
    let mut cand = spec.clone();
    cand.actors.remove(a);
    cand.assertion.retain_mut(|c| match c {
        Cond::Reg { actor, .. } => match (*actor as usize).cmp(&a) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => false,
            std::cmp::Ordering::Greater => {
                *actor -= 1;
                true
            }
        },
        Cond::Mem { .. } => true,
    });
    cand
}

/// `spec` minus op `i` of actor `a`, with assertion load ordinals
/// adjusted when the deleted op was a plain load.
fn drop_op(spec: &Spec, a: usize, i: usize) -> Spec {
    let mut cand = spec.clone();
    let removed = cand.actors[a].remove(i);
    if matches!(removed, Op::Load { .. }) {
        let removed_ord = spec.actors[a][..i]
            .iter()
            .filter(|o| matches!(o, Op::Load { .. }))
            .count();
        cand.assertion.retain_mut(|c| match c {
            Cond::Reg { actor, load, .. } if *actor as usize == a => {
                match (*load as usize).cmp(&removed_ord) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => false,
                    std::cmp::Ordering::Greater => {
                        *load -= 1;
                        true
                    }
                }
            }
            _ => true,
        });
    }
    cand
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> Spec {
        Spec::parse(s).unwrap()
    }

    #[test]
    fn shrinks_to_the_interesting_core() {
        // "Interesting" = both actors still touch slot x.
        let touches = |s: &Spec| {
            s.actors.iter().all(|a| {
                a.iter()
                    .any(|op| matches!(op, Op::Store { loc: 0 } | Op::Load { loc: 0 }))
            })
        };
        let fat = spec("v2;CB;Ly.Sx.Lz/Su.Lx");
        assert!(touches(&fat));
        let thin = shrink(&fat, touches);
        assert_eq!(thin.actors[0], vec![Op::Store { loc: 0 }]);
        assert_eq!(thin.actors[1], vec![Op::Load { loc: 0 }]);
    }

    #[test]
    fn result_is_one_minimal() {
        let pred = |s: &Spec| s.actors[0].len() + s.actors[1].len() >= 3;
        let fat = spec("v2;CB;Lx.Lx.Lx.Lx/Sy.Sy.Sy");
        let thin = shrink(&fat, pred);
        assert_eq!(thin.actors[0].len() + thin.actors[1].len(), 3);
        // Every single-op deletion falls below the predicate.
        for actor in 0..2 {
            for i in 0..thin.actors[actor].len() {
                if thin.actors[actor].len() == 1 {
                    continue;
                }
                assert!(!pred(&drop_op(&thin, actor, i)));
            }
        }
    }

    #[test]
    fn never_empties_an_actor() {
        let thin = shrink(&spec("v2;CB;Lx.Lx.Lx/Sx"), |_| true);
        assert_eq!(thin.actors[0].len(), 1);
        assert_eq!(thin.actors[1].len(), 1);
    }

    #[test]
    fn litmus_shrink_drops_actors_ops_and_conds() {
        // Interesting = actor holding `Sx` and an actor with a load of x
        // still exist. Everything else must shrink away.
        let fat = spec("v2;CB;Sx.Sy.fD/Lz.Lx/Sz.Su;?1:r0=0&1:r1=0&[y]=1");
        let pred = |s: &Spec| {
            s.validate().is_ok()
                && s.actors.iter().any(|a| a.contains(&Op::Store { loc: 0 }))
                && s.actors.iter().any(|a| a.contains(&Op::Load { loc: 0 }))
        };
        assert!(pred(&fat));
        let thin = shrink(&fat, pred);
        assert!(pred(&thin));
        thin.validate().unwrap();
        assert_eq!(thin.actors.len(), 2);
        assert_eq!(thin.actors[0], vec![Op::Store { loc: 0 }]);
        assert_eq!(thin.actors[1], vec![Op::Load { loc: 0 }]);
        assert!(thin.assertion.is_empty());
    }

    #[test]
    fn litmus_shrink_renumbers_assertion_refs() {
        // Predicate pins the cond on actor 2's second load; shrinking must
        // keep that cond valid while deleting the other actor/ops.
        let fat = spec("v2;CB;Sx/Sy/Lz.Ly.Lx;?2:r2=0");
        let pred = |s: &Spec| {
            s.validate().is_ok()
                && s.assertion
                    .iter()
                    .any(|c| matches!(c, Cond::Reg { value: 0, .. }))
        };
        let thin = shrink(&fat, pred);
        thin.validate().unwrap();
        assert_eq!(thin.actors.len(), 2, "{}", thin.to_compact_string());
        assert_eq!(thin.assertion.len(), 1);
    }
}
