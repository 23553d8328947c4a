#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline — external deps are vendored under compat/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy --workspace (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== sans-IO boundary: grep crates/net/src/core.rs =="
# The node core (crates/net/src/core.rs) decides everything and touches
# nothing: no clock read, no readiness registration, no quiescence
# counter, no socket. Its driver, crates/net/src/reactor.rs, does those.
if grep -nE 'Instant::now|Poller|InFlight|TcpStream|UnixStream' crates/net/src/core.rs; then
  echo "sans-IO boundary: the node core must not read the clock or touch I/O"
  exit 1
fi

echo "== one JSON writer: grep for hand-built JSON =="
# Every JSON document the workspace emits is built as an oat_obs::Json
# value and rendered by crates/obs/src/json.rs; a format string that
# opens a JSON object (`{{\"` or, in a raw string, `{{"`) anywhere else
# is a second writer.
if grep -rnE --include='*.rs' '\{\{\\?"' crates/*/src src | grep -v '^crates/obs/src/json.rs:'; then
  echo "one JSON writer: build JSON with oat_obs::Json, not format!"
  exit 1
fi

echo "== tier 1: cargo build --release =="
cargo build --release

echo "== paper tables: tables | diff docs/tables_output.txt =="
# The paper's figures and theorem checks, regenerated and diffed against
# the archived run: a change that moves any table value fails here, by
# experiment name in the diff. Timings go to stderr and are not diffed.
cargo build --release -p oat-bench --bin tables
./target/release/tables 2>/dev/null | diff -u docs/tables_output.txt -

echo "== examples: every program under examples/ =="
# Each example runs from the release build and must exit 0. The
# adversarial one also prints the simulator's RWW bill next to the
# analytic replay and OPT; the grep pins all three on the Theorem-3
# adversary, so a change to either the mechanism or the offline totals
# that moves them fails here.
cargo build --release --examples
for src in examples/*.rs; do
  name=$(basename "$src" .rs)
  out=$("./target/release/examples/$name") || { echo "example $name exited nonzero"; exit 1; }
  if [ "$name" = adversarial ]; then
    grep -F 'simulated RWW: 2500 msgs; analytic replay: 2500 msgs; OPT: 1000; ratio 2.5000' <<<"$out" ||
      { echo "example adversarial: the RWW/OPT bill line changed"; exit 1; }
  fi
done

echo "== tier 1: cargo test -q --workspace =="
# --workspace: a bare `cargo test` at the root runs only the root
# package's tests/ and src/, not the member crates' own unit and
# integration tests (oat-core's mechanism tests, oat-net's reactor tests,
# oat-poll's, crates/query/tests/progressive.rs, ...). tests/cli.rs also
# runs `oat trace`, `oat mlap`, `oat query` on tcp/uds/ring and `oat
# serve`, and checks the JSON documents they emit, parsed with
# oat_obs::Json.
cargo test -q --workspace

echo "== parity: oat chaos --faults none on tcp/uds/ring =="
# Sim<->cluster parity from the CLI, on every transport backend. With an
# empty fault plan `oat chaos` also runs the simulator on the same
# workload and exits nonzero unless every combine equals the oracle and
# the per-edge, per-kind message counts equal the simulator's exactly.
# Without faults no connection may be lost and nothing re-sent: a lost
# frame or a sequence gap severs its connection, which shows as a
# reconnect. The second shape is the benchmark's: with two reactors its
# placement leaves one tree edge (0-1) crossing reactors, so nearly every
# hop stays on one thread.
for shape in "kary:10:2 uniform:0.5:120" "kary:31:2 uniform:0.5:2000"; do
  read -r tree workload <<<"$shape"
  for t in tcp uds ring; do
    out=$(./target/release/oat chaos --tree "$tree" --workload "$workload" \
      --faults none --transport "$t")
    grep -F 'parity: OK' <<<"$out" || { echo "parity ($tree, $t): no parity line"; exit 1; }
    grep -F 'reconnects 0, retransmits 0' <<<"$out" ||
      { echo "parity ($tree, $t): a fault-free run lost a connection or re-sent frames"; exit 1; }
  done
done

echo "== chaos smoke: oat chaos on tcp/uds/ring =="
# Seeded fault injection against the sequential oracle: drops/dups/delays
# on every edge, two scheduled connection kills, one node crash-restart.
# `oat chaos` exits nonzero itself if any combine diverges, the cluster
# wedges, or a scheduled fault fails to fire.
for t in tcp uds ring; do
  ./target/release/oat chaos --tree kary:10:3 --workload uniform:0.5:80 \
    --faults "seed:7,drop:0.05,dup:0.05,delay:0.05,kill:0-1@3,kill:2-0@4,crash:2@5" \
    --transport "$t"
done

echo "== chaos at size: drop-heavy oat chaos on tcp/uds/ring =="
# Every injected drop or delay severs its connection and the reconnect
# replays what was lost: at 5 % of frames on a 31-node tree, hundreds of
# reconnects per run, each one hello exchange, so the run takes well
# under a second. It must still answer every combine as the oracle does.
for t in tcp uds ring; do
  ./target/release/oat chaos --tree kary:31:2 --workload uniform:0.5:4000 \
    --faults "seed:7,drop:0.05,dup:0.05,delay:0.05" --transport "$t"
done

echo "== crash-recovery smoke: oat chaos --kill9 on tcp/uds/ring =="
# Process-kill recovery from the write-ahead log: drops and dups on every
# edge, one connection kill, the root and an internal node kill9'd, plus
# a seeded torn-tail disk fault at recovery. --kill9 auto-provisions a
# WAL in a fresh temp dir (removed when the run ends), so chaos_run's
# internal cross-checks are armed: every scheduled kill9 fired, the
# per-node restart counters sum to crashes + kill9s, and every WAL
# recovery replay is accounted for by exactly one kill9 (it exits
# nonzero on any mismatch, a diverged combine, or a wedged cluster).
for t in tcp uds ring; do
  ./target/release/oat chaos --tree kary:10:3 --workload uniform:0.5:80 \
    --faults "seed:7,drop:0.05,dup:0.05,kill:0-1@3,torn-tail:64" \
    --kill9 0@6,2@5 --transport "$t"
done

echo "== benchmark gate: benchmark/smoke.sh =="
# The standalone benchmark package (BENCHMARK.json's command): its own
# fmt, clippy and tests, then every workload at 1/20 size with all
# oracles on. It builds into benchmark/target, not ./target.
benchmark/smoke.sh

echo "== ci: all green =="
