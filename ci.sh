#!/usr/bin/env bash
# Tier-1 gate: release build, full workspace tests, clippy clean, and a
# build of the standalone `benchmark/` package followed by that package's
# own unit tests, among them the check that `BENCHMARK.json` on disk
# equals `spec::contract()`. That build is what checks the
# `iguard::shard` shim: the frozen benchmark names `ShardedIguard` (a
# second `impl Detector`, and the service job closure's parameter type)
# and `ShardConfig::inline`, so breaking that surface fails here rather
# than in a benchmark run.
# The workspace tests already byte-compare the stdout of `table4`, `table5`,
# `fig11`, `pressure`, `chaos` and both `service` soaks (`golden_stdout`)
# and pin the hot paths (`counter_identity`, `heap_ceiling`,
# `schedule_digest`, `split_shapes`, `service_determinism`, and
# `paged_l2_agrees_with_a_flat_memory` for the device memory under all of
# them); each flag below adds only what that step does not run.
# --quick    `benchmark/run.sh --smoke`: every benchmark workload and arm
#            once, verdicts checked against their references.
# --fuzz     a 45 s differential fuzz campaign (generated kernels vs the
#            schedule-space oracle vs both detectors; any unexplained
#            divergence fails), a 30 s `fuzz --static` arm (pinned corpus +
#            fresh stream through the static-pruning differential; any
#            `static-unsound` observation fails), and the corpus drift
#            check (both pinned corpora regenerate byte-identically).
# --chaos    five seeded chaos campaigns with every fault site armed (zero
#            panics, every degradation accounted, checkpoint resume
#            byte-exact) and the campaign crash drill: a checkpointed fuzz
#            campaign, its newest generation truncated, a resume that must
#            fall back one generation and finish on the same totals.
# --litmus   replay of the pinned v2 litmus corpus through the `litmus`
#            binary, then a 30 s random litmus campaign; any unexplained
#            divergence or replay drift fails.
# --service  the unsupervised chaos soak (>= 1000 launches with the per-job
#            fault plane armed; verdicts byte-identical across reshapes and
#            a restart, every degradation accounted) and the shell-level
#            crash-recovery drill: run to a mid-soak save, exit, truncate
#            the newest generation, resume, and require the final digests
#            byte-identical to an uninterrupted run.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
FUZZ=0
CHAOS=0
LITMUS=0
SERVICE=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --fuzz) FUZZ=1 ;;
    --chaos) CHAOS=1 ;;
    --litmus) LITMUS=1 ;;
    --service) SERVICE=1 ;;
    *) echo "ci.sh: unknown flag $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace --release

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark/ builds against the workspace crates =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "== benchmark/ unit tests =="
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml --target-dir target

if [[ "$QUICK" -eq 1 ]]; then
  echo "== benchmark smoke (--quick) =="
  benchmark/run.sh --smoke
fi

if [[ "$FUZZ" -eq 1 ]]; then
  echo "== differential fuzz smoke (--fuzz) =="
  # Unlimited kernel stream, hard 45 s budget: stays under a minute while
  # covering as many kernels as the machine manages.
  cargo run --release -p bench --bin fuzz -- --kernels 0 --budget 45 --seed 42 --no-progress
  echo "== static-pruning differential smoke (--fuzz) =="
  # Corpus replay + unlimited fresh stream, hard 30 s budget; exits
  # non-zero on any static-unsound observation (the bucket must stay
  # empty — static-incomplete is the expected class and does not fail).
  cargo run --release -p bench --bin fuzz -- --static --kernels 0 --budget 30 --seed 42 --no-progress
  echo "== corpus drift check (--fuzz) =="
  # Regenerating both pinned corpora into a scratch dir must reproduce
  # the committed files byte-for-byte: a semantic drift that keeps every
  # entry individually verifiable still fails here.
  CORPUS_TMP="$(mktemp -d)"
  trap 'rm -rf "$CORPUS_TMP"' EXIT
  ORACLE_CORPUS_REGEN=1 CORPUS_REGEN_DIR="$CORPUS_TMP" \
    cargo test -q --release --test regressions_replay oracle_corpus_replays_deterministically
  LITMUS_CORPUS_REGEN=1 CORPUS_REGEN_DIR="$CORPUS_TMP" \
    cargo test -q --release --test regressions_replay litmus_corpus_replays_deterministically
  cmp "$CORPUS_TMP/oracle_v1.corpus" tests/corpus/oracle_v1.corpus \
    || { echo "corpus drift: oracle_v1.corpus no longer regenerates byte-identically" >&2; exit 1; }
  cmp "$CORPUS_TMP/litmus_v2.corpus" tests/corpus/litmus_v2.corpus \
    || { echo "corpus drift: litmus_v2.corpus no longer regenerates byte-identically" >&2; exit 1; }
  echo "corpus drift check: both corpora regenerate byte-identically"
fi

if [[ "$CHAOS" -eq 1 ]]; then
  echo "== chaos smoke (--chaos) =="
  # 5 seeded campaigns, all 9 fault sites armed at ~1.6%: no panics, every
  # injected fault traceable to a counter, checkpoint resume byte-exact.
  cargo run --release -p bench --bin chaos -- --campaigns 5 --seed 42 --no-progress
  echo "== campaign crash drill (--chaos) =="
  # The service crash drill's twin for bench campaigns: 64 kernels are two
  # batches, so two generations land in the store; we tear the newest, and
  # the resume must fall back to generation 1 (not start over), run the
  # lost batch again, and report the uninterrupted campaign's totals.
  FUZZ_STORE=target/fuzz-store
  rm -rf "$FUZZ_STORE"
  totals() { grep '^fuzz: ' | sed -E 's/ in [0-9.]+s//'; }
  FULL="$(cargo run --release -p bench --bin fuzz -- --kernels 64 --seed 42 --no-progress \
    --checkpoint "$FUZZ_STORE" | totals)"
  NEWEST="$(ls "$FUZZ_STORE"/ckpt-*.v2 | sort | tail -1)"
  truncate -s -20 "$NEWEST"
  echo "campaign drill: truncated 20 bytes off $NEWEST"
  RESUMED="$(cargo run --release -p bench --bin fuzz -- --resume "$FUZZ_STORE" --no-progress \
    2> target/fuzz-drill.err | totals)"
  grep 'resumed campaign' target/fuzz-drill.err
  grep -q 'from generation 1 (2 scanned, 1 invalid skipped)' target/fuzz-drill.err \
    || { echo "campaign drill: resume did not fall back to generation 1" >&2; exit 1; }
  [[ -n "$FULL" && "$RESUMED" == "$FULL" ]] \
    || { echo "campaign drill: resumed totals '$RESUMED' != uninterrupted '$FULL'" >&2; exit 1; }
  echo "campaign drill: resumed from generation 1, totals match the uninterrupted campaign"
fi

if [[ "$SERVICE" -eq 1 ]]; then
  echo "== detector-service soak, chaos arm (--service) =="
  # Quick fleet (3 tenants x 8 jobs x 48 reps >= 1000 launches) with the
  # per-job fault plane armed (GPU launch boundary + detector internals),
  # plus the in-binary reshape + restart drills; exits non-zero on any
  # verdict divergence or unaccounted degradation.
  cargo run --release -p bench --bin service -- --quick --chaos --no-progress
  echo "== crash-recovery drill (--service) =="
  # Shell-level kill/corrupt/resume: stage 1 runs two partial incarnations
  # and exits (simulating a crash between saves); we then damage the
  # newest on-disk generation; stage 2 must recover the older valid one,
  # finish the fleet, and match an uninterrupted control run's digests.
  DRILL_STORE=target/service-store-drill
  cargo run --release -p bench --bin service -- --quick --supervised --chaos --no-progress \
    --store "$DRILL_STORE" --drill-stage 1
  NEWEST="$(ls "$DRILL_STORE"/ckpt-*.v2 | sort | tail -1)"
  truncate -s -20 "$NEWEST"
  echo "crash drill: truncated 20 bytes off $NEWEST"
  cargo run --release -p bench --bin service -- --quick --supervised --chaos --no-progress \
    --store "$DRILL_STORE" --drill-stage 2
fi

if [[ "$LITMUS" -eq 1 ]]; then
  echo "== litmus corpus replay (--litmus) =="
  cargo run --release -p bench --bin litmus -- --corpus tests/corpus/litmus_v2.corpus --no-progress
  echo "== litmus fuzz smoke (--litmus) =="
  # Unlimited spec stream, hard 30 s budget; exits non-zero on any
  # unexplained oracle/detector divergence.
  cargo run --release -p bench --bin litmus -- --tests 0 --budget 30 --seed 42 --no-progress
fi

echo "CI OK"
