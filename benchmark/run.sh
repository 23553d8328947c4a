#!/usr/bin/env bash
# Builds the benchmark (release) and runs it; every argument goes to
# oat-benchmark:
#
#   benchmark/run.sh                        every workload, prints the result set
#   benchmark/run.sh --trace                ... plus the traced per-layer pass
#   benchmark/run.sh --quick                ... at 1/20 size (smoke)
#   benchmark/run.sh --workload pipe-mixed --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh compare A.json B.json
#
# Build output and every scratch file (WAL directories, Unix sockets) stay
# under CARGO_TARGET_DIR, which defaults to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export TMPDIR="$target/tmp"
mkdir -p "$TMPDIR"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/oat-benchmark" "$@"
