//! Deterministic replay of every historical regression:
//!
//! 1. the shrunk failure cases `proptest` recorded in
//!    `tests/fuzz_test.proptest-regressions` (re-expressed here as
//!    explicit kernels — proptest only replays them inside its own
//!    harness, this test pins them unconditionally);
//! 2. the oracle corpus `tests/corpus/oracle.corpus`: every pinned spec's
//!    race verdict, assertion classification (unreachable / SC-reachable /
//!    weak-only), witness replay on the weak machine, and both detectors'
//!    verdicts and explained divergences must still hold.
//!
//! Regenerate the corpus after a *deliberate* semantic change with:
//!
//! ```text
//! ORACLE_CORPUS_REGEN=1 cargo test --release --test regressions_replay
//! ```
//!
//! With `CORPUS_REGEN_DIR=<dir>` set, regeneration writes there instead
//! of over the pinned file — the CI drift check regenerates into a temp
//! dir and byte-compares against the pinned corpus, so a semantic drift
//! that happens to keep every entry verifiable still fails loudly.

use iguard_repro::gpu_sim::machine::{Gpu, GpuConfig};
use iguard_repro::gpu_sim::prelude::*;
use iguard_repro::iguard::Iguard;
use iguard_repro::nvbit_sim::Instrumented;
use iguard_repro::oracle::corpus;
use iguard_repro::oracle::diff::diff;
use iguard_repro::oracle::spec::Spec;

const CORPUS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/oracle.corpus");

/// Where an `ORACLE_CORPUS_REGEN=1` run writes: the pinned path, unless
/// `CORPUS_REGEN_DIR` redirects it (the CI drift check's scratch dir).
fn regen_target() -> String {
    match std::env::var("CORPUS_REGEN_DIR") {
        Ok(dir) if !dir.is_empty() => format!("{dir}/oracle.corpus"),
        _ => CORPUS_PATH.to_string(),
    }
}

/// The shrunk case from `fuzz_test.proptest-regressions`: two phases with
/// `read_shift = 33`, the first gap unsynchronized, schedule seed 0. The
/// generator marks it racy by construction; the detector must flag it on
/// that exact schedule. (Mirrors `fuzz_test::build` for two phases.)
#[test]
fn proptest_regression_unsynced_double_buffer_is_flagged() {
    const BLOCK: u32 = 64;
    const READ_SHIFT: u32 = 33;
    let mut b = KernelBuilder::new("regression_cc15c4");
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    for (i, synced) in [(0usize, true), (1usize, false)] {
        if i > 0 && synced {
            b.syncthreads();
        }
        let parity_base = (i % 2) as u32 * BLOCK;
        let wcell = b.add(tid, parity_base);
        let woff = b.mul(wcell, 4u32);
        let wa = b.add(base, woff);
        let v = b.add(tid, i as u32);
        b.st(wa, 0, v);
        if i > 0 {
            let prev_base = ((i - 1) % 2) as u32 * BLOCK;
            let t2 = b.add(tid, READ_SHIFT);
            let rcell = b.rem(t2, BLOCK);
            let shifted = b.add(rcell, prev_base);
            let roff = b.mul(shifted, 4u32);
            let ra = b.add(base, roff);
            let _ = b.ld(ra, 0);
        }
    }
    let kernel = b.build();

    let mut gpu = Gpu::new(GpuConfig {
        seed: 0,
        ..GpuConfig::default()
    });
    let buf = gpu.alloc(2 * BLOCK as usize).unwrap();
    let mut tool = Instrumented::new(Iguard::default());
    gpu.launch(&kernel, 1, BLOCK, &[buf], &mut tool).unwrap();
    assert!(
        tool.tool().unique_races() > 0,
        "historical regression no longer flagged"
    );
}

/// The pinned specs, in corpus order. First the race family: one
/// two-actor kernel per verdict class the oracle distinguishes, plus the
/// divergence classes the campaign found. Then the litmus battery: MP,
/// SB, LB, IRIW and WRC at every fence scope (none / `.cta` / `.gpu`), the
/// same-warp placements, the atomic variants, and the detector
/// false-negative shapes the weak plane exposes. Each string is the exact
/// compact form the corpus pins.
fn corpus_specs() -> Vec<Spec> {
    [
        "v2;CB;Sx/Lx",       // cross-block store/load: DR race
        "v2;CB;Su.Ly/Su",    // cross-block store/store: DR race
        "v2;SW;Sy/Ly",       // same-warp store/load: ITS race (Barracuda-blind)
        "v2;SW;w.Sx/w.Lx",   // barrier *before* both accesses: still racy
        "v2;SW;Sx.w/w.Lx",   // store before, load after __syncwarp: clean
        "v2;SW;Sx.t/t.Lx",   // store before, load after __syncthreads: clean
        "v2;CB;aBx/aBx",     // block-scope atomics across blocks: AS race
        "v2;CB;aDx/aDx",     // device-scope atomics: synchronized, clean
        "v2;CB;aDz/Lz",      // benign atomic read (P6): clean, Barracuda FP class
        "v2;CB;aBy/Ly",      // insufficient-scope atomic vs load: AS race
        "v2;SW;Sx.fD/Lx",    // fence does not order plain accesses: racy
        "v2;SW;Lx/Lx",       // load/load: no conflict
        "v2;CB;Lx.Sy/Lx.Sz", // shared read, disjoint writes: clean
        // Known iGUARD inaccuracies the fuzz stream reaches: a later
        // device-scope RMW hides a block-scope one (FN), and a plain-store
        // history defeats P6 for an atomic/plain-load pair (FP).
        "v2;CB;aBy.aDy/Ly",
        "v2;SW;Sy.w.Ly/w.aBy",
        // Message passing at each fence scope. The assertion is the
        // MP-forbidden outcome (saw the flag, missed the payload).
        "v2;CB;Sx.Sy/Ly.Lx;?1:r0=1&1:r1=0",
        "v2;CB;Sx.fB.Sy/Ly.fB.Lx;?1:r0=1&1:r1=0",
        "v2;CB;Sx.fD.Sy/Ly.fD.Lx;?1:r0=1&1:r1=0",
        // Store buffering: both readers miss the other store.
        "v2;CB;Sx.Ly/Sy.Lx;?0:r0=0&1:r0=0",
        "v2;CB;Sx.fB.Ly/Sy.fB.Lx;?0:r0=0&1:r0=0",
        "v2;CB;Sx.fD.Ly/Sy.fD.Lx;?0:r0=0&1:r0=0",
        // Load buffering: both loads see the other's later store
        // (unreachable in an in-order pipeline at any scope).
        "v2;CB;Lx.Sy/Ly.Sx;?0:r0=1&1:r0=1",
        "v2;CB;Lx.fB.Sy/Ly.fB.Sx;?0:r0=1&1:r0=1",
        "v2;CB;Lx.fD.Sy/Ly.fD.Sx;?0:r0=1&1:r0=1",
        // IRIW: the two readers disagree on the store order. Reader
        // fences do not restore multi-copy atomicity (non-cumulative).
        "v2;CB;Sx/Sy/Lx.Ly/Ly.Lx;?2:r0=1&2:r1=0&3:r0=1&3:r1=0",
        "v2;CB;Sx/Sy/Lx.fB.Ly/Ly.fB.Lx;?2:r0=1&2:r1=0&3:r0=1&3:r1=0",
        "v2;CB;Sx/Sy/Lx.fD.Ly/Ly.fD.Lx;?2:r0=1&2:r1=0&3:r0=1&3:r1=0",
        // Write-to-read causality, unfenced and fenced.
        "v2;CB;Sx/Lx.Sy/Ly.Lx;?1:r0=1&2:r0=1&2:r1=0",
        "v2;CB;Sx/Lx.fD.Sy/Ly.fD.Lx;?1:r0=1&2:r0=1&2:r1=0",
        // Same-warp placements: one L1, always sequentially consistent.
        "v2;SW;Sx.Sy/Ly.Lx;?1:r0=1&1:r1=0",
        "v2;SW;Sx.Ly/Sy.Lx;?0:r0=0&1:r0=0",
        // Stale re-read: the reader revisits its own stale clean line
        // even though the writer fenced at device scope.
        "v2;CB;Sx.fD.Sy/Lx.Ly.Lx;?1:r1=1&1:r2=0",
        // Detector false negatives beyond the paper's six races: device
        // atomics paired with plain loads are race-free under the P6
        // rule, yet the weak plane still reaches the forbidden outcome.
        "v2;CB;eDx.eDy/Lx.Ly.Lx;?1:r1=1&1:r2=0",
        "v2;CB;eDx.fD.eDy/Lx.Ly.Lx;?1:r1=1&1:r2=0",
        // Atomic MP variants: device scope clean, block scope an AS race.
        "v2;CB;eDx.eDy/Ly.Lx;?1:r0=1&1:r1=0",
        "v2;CB;eBx.eBy/Ly.Lx;?1:r0=1&1:r1=0",
        // SB with atomic stores.
        "v2;CB;aDx.Ly/aDy.Lx;?0:r0=0&1:r0=0",
        // Three-writer coherence on one location.
        "v2;CB;Sx/Sx/Lx.Lx",
        // IRIW with atomic writers (readers stay plain).
        "v2;CB;eDx/eDy/Lx.Ly/Ly.Lx;?2:r0=1&2:r1=0&3:r0=1&3:r1=0",
    ]
    .iter()
    .map(|s| {
        let spec = Spec::parse(s).expect("corpus spec parses");
        assert_eq!(spec.to_compact_string(), *s, "non-canonical corpus string");
        spec
    })
    .collect()
}

#[test]
fn oracle_corpus_replays_deterministically() {
    if std::env::var_os("ORACLE_CORPUS_REGEN").is_some() {
        let target = regen_target();
        let entries: Vec<_> = corpus_specs().iter().map(corpus::entry_for).collect();
        std::fs::create_dir_all(std::path::Path::new(&target).parent().unwrap()).unwrap();
        std::fs::write(&target, corpus::format(&entries)).expect("write corpus");
        eprintln!("corpus regenerated at {target} ({} entries)", entries.len());
        return;
    }

    let text = std::fs::read_to_string(CORPUS_PATH)
        .expect("corpus missing; regenerate with ORACLE_CORPUS_REGEN=1");
    let entries = corpus::parse(&text).expect("corpus parses");
    assert!(
        entries.len() >= corpus_specs().len(),
        "corpus lost entries: {} < {}",
        entries.len(),
        corpus_specs().len()
    );
    let mut failures = Vec::new();
    for e in &entries {
        if let Err(msg) = corpus::verify(e) {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Pins the detector false-negative classes the weak-memory plane
/// demonstrates *beyond* the paper's six race classes: a program iGUARD
/// correctly calls race-free (device-scope atomic writes vs plain loads,
/// the P6 flag-polling idiom) still reaches an assertion-violating
/// outcome under relaxed visibility. Unfenced, the divergence classifies
/// `visibility-blind`; with a device fence in the writer it classifies
/// `fence-scope-approximation` — the fence cannot invalidate the
/// reader's stale clean line.
#[test]
fn weak_plane_false_negative_classes_are_pinned() {
    for (spec_str, class) in [
        ("v2;CB;eDx.eDy/Lx.Ly.Lx;?1:r1=1&1:r2=0", "visibility-blind"),
        (
            "v2;CB;eDx.fD.eDy/Lx.Ly.Lx;?1:r1=1&1:r2=0",
            "fence-scope-approximation",
        ),
    ] {
        let spec = Spec::parse(spec_str).unwrap();
        let r = diff(&spec);
        assert!(
            !r.oracle.racy,
            "{spec_str}: must be race-free under the oracle"
        );
        let a = r.oracle.assertion.as_ref().expect("assertion verdict");
        assert!(
            a.reachable && !a.sc_reachable,
            "{spec_str}: violation must be weak-only"
        );
        assert!(
            r.unexplained().is_empty(),
            "{spec_str}: FN divergence must be explained"
        );
        let iguard_fn = r
            .divergences
            .iter()
            .find(|d| d.detector == "iguard")
            .expect("iguard FN divergence present");
        assert_eq!(iguard_fn.explanation, Some(class), "{spec_str}");
    }
}
