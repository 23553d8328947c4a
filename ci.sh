#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline — external deps are vendored under compat/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy --workspace (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier 1: cargo build --release =="
cargo build --release

echo "== paper tables: tables | diff docs/tables_output.txt =="
# The paper's figures and theorem checks, regenerated and diffed against
# the archived run: a change that moves any table value fails here, by
# experiment name in the diff. Timings go to stderr and are not diffed.
cargo build --release -p oat-bench --bin tables
./target/release/tables 2>/dev/null | diff -u docs/tables_output.txt -

echo "== tier 1: cargo test -q --workspace =="
# --workspace: a bare `cargo test` at the root runs only the root
# package's tests/ and src/, not the member crates' own unit and
# integration tests (oat-core's mechanism tests, oat-net's reactor tests,
# oat-poll's, crates/query/tests/progressive.rs, ...).
cargo test -q --workspace

echo "== parity: oat chaos --faults none on tcp/uds/ring =="
# Sim<->cluster parity from the CLI, on every transport backend. With an
# empty fault plan `oat chaos` also runs the simulator on the same
# workload and exits nonzero unless every combine equals the oracle and
# the per-edge, per-kind message counts equal the simulator's exactly.
for t in tcp uds ring; do
  out=$(./target/release/oat chaos --tree kary:10:2 --workload uniform:0.5:120 \
    --faults none --transport "$t")
  grep -F 'parity: OK' <<<"$out" || { echo "parity ($t): no parity line"; exit 1; }
done

echo "== trace smoke: oat trace --workload =="
# Records a live oat-obs trace of a 10-node workload (sim replay + faulted
# pipelined TCP replay), then checks the oat-trace-v1 JSONL: every line
# parses as JSON and at least one event of every category was captured.
TRACE_OUT=$(mktemp /tmp/oat_trace_smoke.XXXXXX.jsonl)
./target/release/oat trace --tree kary:10:2 --workload uniform:0.5:80 \
  --pipeline 4 --faults "seed:7,drop:0.02,kill:1-0@3" --out "$TRACE_OUT" > /dev/null
python3 - "$TRACE_OUT" <<'PY'
import json, sys
cats = {}
with open(sys.argv[1]) as f:
    header = json.loads(f.readline())
    assert header["schema"] == "oat-trace-v1", header
    for line in f:
        e = json.loads(line)
        cats[e["cat"]] = cats.get(e["cat"], 0) + 1
want = {"request", "frame", "lease", "fault", "reactor", "sim"}
missing = want - set(cats)
assert not missing, f"categories missing from trace: {missing} (got {cats})"
print(f"trace smoke: {sum(cats.values())} events, all {len(want)} categories present")
PY
rm -f "$TRACE_OUT"

echo "== mlap smoke: oat mlap --workload adv:3:6 =="
# The second problem family: both deadline policies plus the baselines on
# the adversarial staggered-deadline spider, scored against the exact
# offline optimum. Pins the oat-mlap-v1 schema, requires every policy to
# cost at least OPT, and checks the lazy policy's unit-weight
# certificate: zero deadline misses and service ≤ (depth+1)·OPT.
MLAP_OUT=$(mktemp /tmp/oat_mlap_smoke.XXXXXX.json)
./target/release/oat mlap --workload adv:3:6 --policy all --seed 7 --json > "$MLAP_OUT"
python3 - "$MLAP_OUT" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "oat-mlap-v1", doc
for key in ("model", "workload", "nodes", "depth", "requests", "opt", "policies"):
    assert key in doc, f"missing {key}"
opt, depth = doc["opt"], doc["depth"]
assert opt is not None and opt > 0, doc
names = set()
for p in doc["policies"]:
    for key in ("name", "service_cost", "delay_cost", "deadline_misses",
                "flushes", "messages", "total_cost", "ratio_vs_opt"):
        assert key in p, f"missing {key} in {p}"
    assert p["total_cost"] >= opt, f"{p['name']} beat OPT?"
    names.add(p["name"])
assert {"odepth", "odepth-prefetch", "greedy", "eager"} <= names, names
lazy = next(p for p in doc["policies"] if p["name"] == "odepth")
assert lazy["deadline_misses"] == 0, lazy
assert lazy["service_cost"] <= (depth + 1) * opt, lazy
print(f"mlap smoke: {len(names)} policies, OPT {opt}, "
      f"odepth ratio {lazy['ratio_vs_opt']} <= bound {depth + 1}")
PY
rm -f "$MLAP_OUT"

echo "== query smoke: oat query on tcp/uds/ring =="
# The progressive-query layer: a tumbling group-by over a short seeded
# zipf fact stream, on every transport. Pins the oat-query-v1 schema
# and the verdicts `oat query` itself computes (it exits nonzero when
# any of them fail): finals equal the sequential oracle exactly,
# coverage and per-key refinement sequences are monotone, and every
# key refined at least three times.
for t in tcp uds ring; do
  Q_OUT=$(mktemp /tmp/oat_query_${t}.XXXXXX.json)
  ./target/release/oat query 'sum group by key window tumbling(100ms)' \
    --stream zipf --facts 120 --keys 3 --transport "$t" --json > "$Q_OUT"
  for key in \
    '"schema": "oat-query-v1"' \
    '"oracle_match": true' \
    '"coverage_monotone": true' \
    '"refine_seq_monotone": true' \
    '"min_partials_per_key":'
  do
    grep -qF "$key" "$Q_OUT" || {
      echo "query smoke ($t): missing $key in $Q_OUT"
      exit 1
    }
  done
  rm -f "$Q_OUT"
done

echo "== chaos smoke: oat chaos =="
# Seeded fault injection against the sequential oracle: drops/dups/delays
# on every edge, two scheduled connection kills, one node crash-restart.
# `oat chaos` exits nonzero itself if any combine diverges, the cluster
# wedges, or a scheduled fault fails to fire.
./target/release/oat chaos --tree kary:10:3 --workload uniform:0.5:80 \
  --faults "seed:7,drop:0.05,dup:0.05,delay:0.05,kill:0-1@3,kill:2-0@4,crash:2@5"

echo "== crash-recovery smoke: oat chaos --kill9 =="
# Process-kill recovery from the write-ahead log: drops and dups on every
# edge, one connection kill, the root and an internal node kill9'd, plus
# a seeded torn-tail disk fault at recovery. --kill9 auto-provisions a
# WAL in a fresh temp dir, so chaos_run's internal cross-checks are
# armed: every scheduled kill9 fired, the per-node restart counters sum
# to crashes + kill9s, and every WAL recovery replay is accounted for by
# exactly one kill9 (it exits nonzero on any mismatch, a diverged
# combine, or a wedged cluster).
./target/release/oat chaos --tree kary:10:3 --workload uniform:0.5:80 \
  --faults "seed:7,drop:0.05,dup:0.05,kill:0-1@3,torn-tail:64" \
  --kill9 0@6,2@5

echo "== benchmark gate: benchmark/smoke.sh =="
# The standalone benchmark package (BENCHMARK.json's command): its own
# fmt, clippy and tests, then every workload at 1/20 size with all
# oracles on. It builds into benchmark/target, not ./target.
benchmark/smoke.sh

echo "== ci: all green =="
