#!/usr/bin/env bash
# Takes two full result sets of this commit back to back and compares
# them in both directions: every end-to-end metric must be within its
# own bound, exact counts identical, and no operation failed.
# Arguments (e.g. --seed 7) go to both runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-$here/target}/agree"
mkdir -p "$out"
"$here/run.sh" "$@" --out "$out/a.json" >/dev/null
"$here/run.sh" "$@" --out "$out/b.json" >/dev/null
"$here/run.sh" compare "$out/a.json" "$out/b.json"
"$here/run.sh" compare "$out/b.json" "$out/a.json"
echo "benchmark agree: ok ($out/a.json, $out/b.json)"
