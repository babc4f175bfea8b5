#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (a cargo package of its
# own, offline) and runs it; see bench/README.md.
#
#   bench/run.sh [--seed N]            every workload, untraced then traced;
#                                      prints every metric, writes out/result.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one pass of one workload; the last line
#                                      of stdout is its JSON result
#   bench/run.sh --quick               8 MiB corpus, short sections; never comparable
#   bench/run.sh --selfcheck           the untraced set twice, compared to the bounds
#   bench/run.sh --spread 10           ten seeds per workload; spreads and bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# The build's own output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
  --target-dir "$target" >&2
exec "$target/release/yardstick" --out "$here/out" "$@"
