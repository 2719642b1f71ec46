#!/usr/bin/env bash
# Tier-1 gate: release build, full workspace tests, clippy clean, and a
# build of the standalone `benchmark/` package (it names `Iguard`,
# `ShardedIguard`, `ShardConfig::inline` and the service closure type, so
# breaking that frozen surface fails here rather than in a benchmark run).
# With --quick, additionally runs `benchmark/run.sh --smoke` (every
# workload and arm once, verdicts checked against their references) and
# the perf-harness smoke: a small
# `perf --quick` sweep whose JSON is validated structurally — schema tag,
# host blocks, overlap accounting, and the static_prune invariants
# (prune rates in [0,1], safe+racy+unknown == mem points,
# dispatched+skipped == total accesses, host-gated speedup fields).
# With --perf, additionally runs the perf tier: the shard-determinism
# suite and the three recorded tables of the hot paths —
# `counter_identity` pins what the detector counts (every `IguardStats`
# field, the metadata `UvmStats` and the raw Detection cycle pools of the
# benchmark's detector traffic, under one and four shards, a capacity
# cap, a history ring, scaled addresses and an armed fault plane) and,
# beside it, `heap_ceiling` pins what the per-word shadows cost (peak live
# heap of the 128 Ki stencil rung under 64 MB natively and under the
# detector, the 1 Mi rung within 1.25 x its recorded peak, by a counting
# allocator);
# `schedule_digest` pins what the interpreter delivers (a hook-level
# digest of every memory access and sync event, with its launch counters
# and simulated clock, over the zoo under ITS and lockstep at three seeds
# plus the benchmark's detector members and stencil rungs); `split_shapes`
# pins what that traffic looks like (per benchmark member, the
# global-memory splits and lanes that are single-lane, uniform, rows on
# consecutive words — contiguous or gapped mask — or anything else: the
# premise of the detector's row path) — so a hot-path edit that moves a
# counter or a scheduling decision, or a workload edit that moves the
# traffic the fast paths were built for, fails here
# rather than in a benchmark run (`benches/detector_hot_path.rs` and
# `benches/interpreter_hot_path.rs` themselves are compiled by the tier-1
# `clippy --all-targets` — the vendored criterion shim has no `--test`
# mode to run them under), the perf smoke, and structural validation of the
# emitted bench-pr8-v1 JSON (plus the previous bench-pr7-v1 trajectory,
# if present — `--validate` dispatches on the schema tag). Wall-clock
# speedup assertions are host-gated by the harness itself (single-core
# boxes record but never compare), so this tier is safe on any machine.
# With --fuzz, additionally runs a time-boxed differential fuzz campaign
# (generated kernels vs the schedule-space oracle vs both detectors); any
# unexplained divergence fails the gate. A second time-boxed arm
# (`fuzz --static`) replays the pinned corpus and a fresh stream through
# the static-pruning differential (static verdict x pruned x full x
# oracle); any `static-unsound` observation fails the gate.
# With --chaos, additionally runs the fault-injection smoke: seeded chaos
# campaigns with every fault site armed (zero panics, every degradation
# accounted, clean mid-campaign checkpoint resume), the
# accuracy-under-pressure sweep (missed-check accounting), and a shell-level
# campaign crash drill: a checkpointed fuzz campaign, the newest generation
# of its checkpoint store damaged, a resume that must continue from the
# generation before it and finish on the uninterrupted campaign's totals.
# With --litmus, additionally runs the weak-memory litmus smoke: replay of
# the pinned v2 litmus corpus (witness traces re-run on the weak machine,
# verdicts and explanations byte-compared) plus a time-boxed random litmus
# campaign; any unexplained divergence or replay drift fails the gate.
# With --service, additionally runs the multi-tenant detector-service
# soak: a >=1000-launch fleet (clean + chaos arms) whose per-tenant
# verdicts must be byte-identical across stream/shard reshapes
# and a restart through the checkpoint store, with the emitted bench-pr9-v1
# JSON validated structurally; then the *supervised* chaos soak (poison-job
# quarantine, retry ladder, checkpoint-store recovery past forced short,
# torn and corrupt generations, bench-pr10-v1 JSON) and a
# shell-level crash-recovery drill: run to a mid-soak save, kill, corrupt
# the newest on-disk generation, resume, and require the final verdict
# digests byte-identical to an uninterrupted run.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
PERF=0
FUZZ=0
CHAOS=0
LITMUS=0
SERVICE=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --perf) PERF=1 ;;
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

if [[ "$QUICK" -eq 1 ]]; then
  echo "== benchmark smoke (--quick) =="
  benchmark/run.sh --smoke
  echo "== perf smoke (--quick) =="
  cargo run --release -p bench --bin perf -- --quick --no-progress
  test -s target/BENCH_PR8.quick.json || { echo "perf smoke: missing/empty JSON" >&2; exit 1; }
  cargo run --release -p bench --bin perf -- --validate target/BENCH_PR8.quick.json
  echo "== service smoke (--quick) =="
  cargo run --release -p bench --bin service -- --quick --no-progress
  test -s target/BENCH_PR9.quick.json || { echo "service smoke: missing/empty JSON" >&2; exit 1; }
  cargo run --release -p bench --bin service -- --validate target/BENCH_PR9.quick.json
  echo "== supervised service smoke (--quick) =="
  cargo run --release -p bench --bin service -- --quick --supervised --chaos --no-progress
  test -s target/BENCH_PR10.quick.json || { echo "supervised smoke: missing/empty JSON" >&2; exit 1; }
  cargo run --release -p bench --bin service -- --validate target/BENCH_PR10.quick.json
fi

if [[ "$PERF" -eq 1 ]]; then
  echo "== shard determinism suite (--perf) =="
  cargo test -q -p bench --release --test shard_determinism
  echo "== hot-path counter identity (--perf) =="
  cargo test -q -p bench --release --test counter_identity
  echo "== stencil heap ceilings (--perf) =="
  cargo test -q -p bench --release --test heap_ceiling
  echo "== interpreter schedule digest (--perf) =="
  cargo test -q -p bench --release --test schedule_digest
  echo "== benchmark split shapes (--perf) =="
  cargo test -q -p bench --release --test split_shapes
  echo "== perf smoke (--perf) =="
  cargo run --release -p bench --bin perf -- --quick --no-progress
  echo "== perf JSON validation (--perf) =="
  # Checks the schema tag, the host block on every recorded run, the
  # overlap invariants (busy + idle == total per engine, overlapped <=
  # serial), and the static_prune accounting on the file the smoke just
  # wrote; older trajectory files validate under their own schema.
  cargo run --release -p bench --bin perf -- --validate target/BENCH_PR8.quick.json
  for f in BENCH_PR8.json BENCH_PR7.json; do
    if [[ -s "$f" ]]; then
      cargo run --release -p bench --bin perf -- --validate "$f"
    fi
  done
  if [[ "$(nproc)" -lt 2 ]]; then
    echo "perf tier: single-core host, skipping wall-clock speedup checks"
  fi
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
  echo "== pressure sweep (--chaos) =="
  # Exits non-zero if any missed check is unaccounted.
  cargo run --release -p bench --bin pressure -- --no-progress
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
  echo "== detector-service soak, clean arm (--service) =="
  # Quick fleet (3 tenants x 8 jobs x 48 reps >= 1000 launches) plus the
  # in-binary reshape + restart determinism drills; exits non-zero on any
  # verdict divergence or unaccounted degradation.
  cargo run --release -p bench --bin service -- --quick --no-progress
  echo "== detector-service soak, chaos arm (--service) =="
  # Same fleet with the per-job fault plane armed (GPU launch boundary +
  # detector internals): verdicts must stay byte-stable and accounted.
  cargo run --release -p bench --bin service -- --quick --chaos --no-progress \
    --out target/BENCH_PR9.chaos.json
  echo "== service JSON validation (--service) =="
  cargo run --release -p bench --bin service -- --validate target/BENCH_PR9.quick.json
  cargo run --release -p bench --bin service -- --validate target/BENCH_PR9.chaos.json
  if [[ -s BENCH_PR9.json ]]; then
    cargo run --release -p bench --bin perf -- --validate BENCH_PR9.json
  fi
  echo "== supervised chaos soak (--service) =="
  # Quick fleet under supervision with every fault site armed plus the
  # deterministic poison lottery: zero process panics, non-quarantined
  # verdicts healed to fault-free bytes, quarantine ledger deterministic,
  # in-binary store-recovery drill (torn + corrupt + short-written
  # generations) byte-identical.
  cargo run --release -p bench --bin service -- --quick --supervised --chaos --no-progress \
    --out target/BENCH_PR10.ci.json --store target/service-store-ci
  cargo run --release -p bench --bin service -- --validate target/BENCH_PR10.ci.json
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
  if [[ -s BENCH_PR10.json ]]; then
    cargo run --release -p bench --bin service -- --validate BENCH_PR10.json
  fi
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
