#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests, then every
# workload at 1/20 size with all oracles on. Ready to be called from
# ci.sh.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cd "$here"
# The tests' scratch files (WAL directories, spans) stay in the build directory.
export TMPDIR="$CARGO_TARGET_DIR/tmp"
mkdir -p "$TMPDIR"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
./run.sh --quick >/dev/null
echo "benchmark smoke: ok"
