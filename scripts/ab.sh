#!/usr/bin/env bash
# Alternating A/B runs of one yardstick workload between two commits, then
# the per-metric comparison table (crates/bench/src/bin/ab_compare.rs).
#
#   scripts/ab.sh <base> <head> --workload W --seeds A..B [--seconds S] [--quick] [--dir D]
#
# Each commit is exported with `git archive` (its committed files only, as
# the benchmark is run on them) into D/src-<hash> and built into
# D/target-<hash>, both named after the full commit hash. A reused D skips
# only the export and rebuild of a commit it already holds; any other
# commit gets a fresh export and target directory, so a stale build is
# never run under a new commit's name. Seed by seed, the two sides run
#   bench/run.sh --workload W --seed S --seconds S --trace 0
# alternately, base first on odd seeds and head first on even ones; the
# last stdout line of each run is kept as D/results/<side>-<seed>.json.
# Defaults: --seconds 15, D = ${TMPDIR:-/tmp}/rlz-ab. The table's verdicts
# are informational: the exit status is nonzero when a run fails to print
# its result line (the table leaves that seed out and lists it) or the
# comparison itself fails.
set -euo pipefail

usage() {
  sed -n '5p' "$0" >&2
  exit 2
}

[ $# -ge 2 ] || usage
base_rev=$1
head_rev=$2
shift 2
workload=""
seeds=""
seconds=15
quick=()
dir="${TMPDIR:-/tmp}/rlz-ab"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seeds) seeds=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --quick) quick=(--quick); shift ;;
    --dir) dir=$2; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$workload" ] && [[ "$seeds" =~ ^[0-9]+\.\.[0-9]+$ ]] || usage
first=${seeds%..*}
last=${seeds#*..}

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rm -rf "$dir/results"
mkdir -p "$dir/results"

# Resolves a revision to its full hash and exports that commit into
# D/src-<hash> unless an earlier run already did (the export is renamed
# into place only once complete).
export_commit() {
  local sha src
  sha=$(git -C "$repo" rev-parse --verify "$1^{commit}")
  src="$dir/src-$sha"
  if [ ! -d "$src" ]; then
    rm -rf "$src.partial"
    mkdir -p "$src.partial"
    git -C "$repo" archive "$sha" | tar -x -C "$src.partial"
    mv "$src.partial" "$src"
  fi
  echo "$sha"
}
base_sha=$(export_commit "$base_rev")
head_sha=$(export_commit "$head_rev")

run_side() {
  local side=$1 seed=$2 sha=$base_sha out
  [ "$side" = head ] && sha=$head_sha
  out="$dir/results/$side-$seed.json"
  echo "== $side seed $seed" >&2
  CARGO_TARGET_DIR="$dir/target-$sha" bash "$dir/src-$sha/bench/run.sh" "${quick[@]}" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
    tail -n 1 > "$out" ||
    echo "ab.sh: $side seed $seed exited nonzero" >&2
  [ "$(head -c 1 "$out")" = "{" ] ||
    echo "ab.sh: $side seed $seed printed no result line; the table leaves seed $seed out" >&2
}

for seed in $(seq "$first" "$last"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run_side base "$seed"
    run_side head "$seed"
  else
    run_side head "$seed"
    run_side base "$seed"
  fi
done

echo "== $workload: base $base_rev ($base_sha) vs head $head_rev ($head_sha)" >&2
cargo run --release --quiet --offline --manifest-path "$repo/Cargo.toml" -p rlz-bench \
  --bin ab_compare -- "$repo/BENCHMARK.json" "$dir/results"
