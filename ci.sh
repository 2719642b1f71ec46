#!/usr/bin/env bash
# Tier-1 gate: rustfmt clean (`cargo fmt --all -- --check`; the
# standalone `benchmark/` package is not a workspace member, so this does
# not cover it), release build, full workspace tests, one release run of
# each `examples/*.rs` (`cargo test` only builds them, so their own
# `assert!`s run here; ~6 s), clippy clean,
# rustdoc clean (`-D warnings`, so a doc link to a deleted or private
# item fails here instead of going stale), and a build of the standalone
# `benchmark/` package followed by that package's own unit tests, among
# them the check that `BENCHMARK.json` on disk equals `spec::contract()`. That build is what checks the
# `iguard::shard` shim: the frozen benchmark names `ShardedIguard` (a
# second `impl Detector`, and the service job closure's parameter type)
# and `ShardConfig::inline`, so breaking that surface fails here rather
# than in a benchmark run. The same build guards the pruning surface the
# frozen benchmark names: `PruneMode::On` (its pruned arm),
# `static_an::analyze(..).{safe_points, unknown_points}` and
# `InstrStats::skipped_mem` (its `static_an.*` and `iguard.prune.*`
# metrics). A deletion of static pruning must keep these until the
# benchmark stops naming them.
# The workspace tests already byte-compare the stdout of every paper
# artifact (`table1`, `table4`, `table5`, `fig11`-`fig14`, `table4 --bench`,
# `fig11 --prune`, `fig12 --ablate`, `fence_scope_cost`, `ablation_history`) plus `pressure`, six
# `iguard_run` invocations, one per detector, and four `fuzz --spec`
# report lines, one per divergence shape (`golden_stdout`), replay
# the oracle corpus (`regressions_replay`), pin the hot paths
# (`counter_identity`, `heap_ceiling`, `schedule_digest`,
# `split_shapes`, `service_determinism`, and
# `paged_l2_agrees_with_a_flat_memory` for the device memory under all of
# them), pin the quick service fleet's per-tenant table
# (`quick_soak_verdicts_and_latencies_are_pinned`), run five seeded
# all-sites chaos campaigns
# (`chaos_campaigns_account_for_every_injected_fault`), and run the
# checkpoint store's crash drills
# (`supervised_fleet_recovers_past_forced_write_faults`,
# `truncated_newest_generation_recovers_the_older_one`); each flag below
# adds only what that step does not run.
# --quick    `benchmark/run.sh --smoke`: every benchmark workload and arm
#            once, verdicts checked against their references.
# --fuzz     a 45 s differential fuzz campaign (generated kernels vs the
#            schedule-space oracle vs both detectors; any unexplained
#            divergence fails), a 30 s `fuzz --static` arm (oracle corpus +
#            fresh stream through the static-pruning differential; any
#            `static-unsound` observation fails: a report the pruned run
#            lost, or an all-safe verdict on an oracle-racy kernel), and
#            the corpus drift check (the oracle corpus regenerates
#            byte-identically).
# --litmus   a 30 s random weak-memory litmus campaign (`fuzz --litmus`);
#            any unexplained divergence fails. The oracle corpus replay is
#            tier 1's `regressions_replay`.
# `fuzz` takes no driver flags (it rejects unknown ones with exit 2): its
# runs fan out over `bench::par_map`, and a spec that panics is counted
# as DNF, printed with its `--spec` rerun line, and fails the step.
set -euo pipefail
cd "$(dirname "$0")"

# One EXIT trap undoes what the steps below leave behind: the benchmark
# build rewrites the committed `benchmark/Cargo.lock` (it builds without
# `--locked`), so a saved copy is put back; `--fuzz` removes its scratch
# corpus directory.
LOCK_SAVE=""
CORPUS_TMP=""
cleanup() {
  if [[ -n "$LOCK_SAVE" ]]; then
    cp "$LOCK_SAVE" benchmark/Cargo.lock
    rm -f "$LOCK_SAVE"
  fi
  if [[ -n "$CORPUS_TMP" ]]; then
    rm -rf "$CORPUS_TMP"
  fi
}
trap cleanup EXIT

QUICK=0
FUZZ=0
LITMUS=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --fuzz) FUZZ=1 ;;
    --litmus) LITMUS=1 ;;
    *) echo "ci.sh: unknown flag $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt =="
cargo fmt --all -- --check

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace --release

echo "== examples =="
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  echo "example $name"
  cargo run -q --release --example "$name" >/dev/null
done

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark/ builds against the workspace crates =="
LOCK_SAVE="$(mktemp)"
cp benchmark/Cargo.lock "$LOCK_SAVE"
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
  cargo run --release -p bench --bin fuzz -- --kernels 0 --budget 45 --seed 42
  echo "== static-pruning differential smoke (--fuzz) =="
  # Corpus replay + unlimited fresh stream, hard 30 s budget; exits
  # non-zero on any static-unsound observation (the bucket must stay
  # empty — static-incomplete is the expected class and does not fail).
  cargo run --release -p bench --bin fuzz -- --static --kernels 0 --budget 30 --seed 42
  echo "== corpus drift check (--fuzz) =="
  # Regenerating the oracle corpus into a scratch dir must reproduce the
  # committed file byte-for-byte: a semantic drift that keeps every entry
  # individually verifiable still fails here.
  CORPUS_TMP="$(mktemp -d)"
  ORACLE_CORPUS_REGEN=1 CORPUS_REGEN_DIR="$CORPUS_TMP" \
    cargo test -q --release --test regressions_replay oracle_corpus_replays_deterministically
  cmp "$CORPUS_TMP/oracle.corpus" tests/corpus/oracle.corpus \
    || { echo "corpus drift: oracle.corpus no longer regenerates byte-identically" >&2; exit 1; }
  echo "corpus drift check: oracle.corpus regenerates byte-identically"
fi

if [[ "$LITMUS" -eq 1 ]]; then
  echo "== litmus fuzz smoke (--litmus) =="
  # Unlimited spec stream, hard 30 s budget; exits non-zero on any
  # unexplained oracle/detector divergence.
  cargo run --release -p bench --bin fuzz -- --litmus --kernels 0 --budget 30 --seed 42
fi

echo "CI OK"
