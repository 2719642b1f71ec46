#!/usr/bin/env bash
# Benchmark v1: builds benchmark/ (release, offline) and runs igbench.
#
#   benchmark/run.sh [--seed N]            every workload, untraced then traced
#   benchmark/run.sh --aa [--seed N]       two untraced sets of the same build
#   benchmark/run.sh --smoke               every workload and arm, one pass
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run (the form BENCHMARK.json's command takes)
#
# Builds into $CARGO_TARGET_DIR when set (relative to where this was
# called from, as cargo reads it), else into the repository's target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Keep freed memory inside the process. By default glibc maps every block
# over 32 MiB afresh and hands it back on free, so the top stencil rung
# takes 338 MB of page faults per arm, and on a shared host their cost
# moved pass_wall_s by 30 % between runs. With these two settings the
# pages are touched once, in the warm-up pass (setup.cold_s shows it).
export MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=17179869184

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/igbench" --out "$here/out" "$@"
