//! `oat` — command-line driver for the aggregation simulator and cluster.
//!
//! ```text
//! oat run       --tree kary:64:2 --policy rww --workload uniform:0.5:1000 --seed 7
//! oat compare   --tree star:32 --workload zipf:0.3:2000:1.0
//! oat trace     --tree path:4 --script "c@0,w@3=10,w@3=20,c@0"
//! oat serve     --tree kary:15:2 --policy rww
//! oat chaos     --tree kary:10:2 --workload uniform:0.5:120 --faults none
//! oat mlap      [--workload SPEC] [--policy SPEC] [--tree SPEC] [--seed N]
//!               [--json]
//! oat help
//! ```
//!
//! Throughput and latency are measured by `benchmark/run.sh`, not here.
//!
//! Specs:
//!
//! * tree: `pair` | `path:N` | `star:N` | `kary:N:K` | `random:N:SEED` |
//!   `caterpillar:SPINE:LEGS`
//! * policy: `rww` | `always` | `never` | `ab:A:B` | `randombreak:B:SEED`
//! * workload: `uniform:WF:LEN` | `hotspot:WF:LEN:READERS:WRITERS` |
//!   `zipf:WF:LEN:ALPHA` | `singlewriter:ROUNDS:WPR`
//! * script: comma-separated `c@NODE` (combine) and `w@NODE=VALUE`
//!   (write) items.

use oat::core::fault::{CrashNode, FaultPlan};
use oat::core::policy::ab::AbSpec;
use oat::core::policy::random::RandomBreakSpec;
use oat::net::{Cluster, DurabilityMode, NetConfig, WalConfig};
use oat::offline::nopt::nopt_total_lower_bound;
use oat::offline::opt_dp::opt_total_cost;
use oat::prelude::*;
use oat::sim::trace::record_sequential;
use oat::sim::viz::render_leases;
use oat::sim::{Engine, Schedule};
use oat_core::policy::PolicySpec;
use oat_core::request::{ReqOp, Request};
use std::io::BufRead;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("mlap") => cmd_mlap(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("help") | None => {
            print!("{}", HELP);
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{HELP}");
            2
        }
    };
    std::process::exit(code);
}

const HELP: &str = "\
oat — online aggregation over trees (IPPS 2007), simulator CLI

USAGE:
  oat run       --tree SPEC --policy SPEC --workload SPEC [--seed N]
  oat compare   --tree SPEC --workload SPEC [--seed N]
  oat trace     --tree SPEC [--policy SPEC] --script ITEMS
  oat trace     --tree SPEC --workload SPEC [--policy SPEC] [--seed N]
                [--pipeline N] [--faults SPEC] [--out PATH] [--chrome PATH]
  oat top       [--tree SPEC] [--workload SPEC] [--policy SPEC] [--seed N]
                [--pipeline N] [--interval-ms N] [--ticks N]
  oat serve     [--tree SPEC] [--policy SPEC] [--transport tcp|uds|ring]
  oat chaos     --tree SPEC --workload SPEC [--policy SPEC] [--seed N]
                [--faults SPEC] [--kill9 NODE@DELIVERED[,..]]
                [--transport tcp|uds|ring]
                [--durability memory|wal[:DIR]] [--fsync-every N]
                [--snapshot-every N]
  oat mlap      [--workload SPEC] [--policy SPEC] [--tree SPEC] [--seed N]
                [--json]
  oat query     SPEC [--tree SPEC] [--policy SPEC] [--facts N] [--keys K]
                [--stream uniform|zipf|phases] [--gap-ms N] [--seed N]
                [--transport tcp|uds|ring] [--json]
  oat help

SPECS:
  tree:     pair | path:N | star:N | kary:N:K | random:N:SEED | caterpillar:S:L
  policy:   rww | always | never | ab:A:B | randombreak:B:SEED
  workload: uniform:WF:LEN | hotspot:WF:LEN:READERS:WRITERS
            | zipf:WF:LEN:ALPHA | singlewriter:ROUNDS:WRITES_PER_ROUND
  script:   comma-separated c@NODE and w@NODE=VALUE items
  faults:   comma-separated seed:N | drop:P | dup:P | delay:P
            | kill:FROM-TO@FRAMES | crash:NODE@DELIVERED
            | kill9:NODE@DELIVERED | torn-tail:MAX | fsync-fail:P
            (or `none`)
  mlap workload: adv:DEPTH:LEGS | bursty:BURSTS:SIZE:WINDOW | delay:LEN:GAP
                 (bursty/delay run on --tree, default kary:15:2)
  mlap policy:   eager | odepth | odepth-prefetch | greedy | all
  query:         OP [group by key] [window last-N | tumbling(Tms)]
                 with OP one of sum | min | max | count

OBSERVABILITY (oat-obs event tracing):
  trace --workload  records a live oat-obs trace of one workload run twice
             (deterministic simulator, then pipelined TCP replay; --faults
             adds fault-category events) and writes it as oat-trace-v1
             JSONL (--out, default oat-trace.jsonl); --chrome PATH also
             writes Chrome trace_event JSON for chrome://tracing/Perfetto
  top        spawns a cluster, drives pipelined load in the background,
             and refreshes an in-place live view every --interval-ms
             (default 500) for --ticks refreshes (default 8): request
             rates, phase p50s from the live trace, per-category event
             counts, and the busiest nodes' queue/lease/fault counters

NET COMMANDS (oat-net TCP cluster on loopback):
  serve      spawns one server thread + TcpListener per tree node and reads
             commands from stdin: c@N | w@N=V | metrics [N] | stats | quit
  chaos      replays a seeded workload sequentially while the transport is
             subjected to --faults (seeded drop/dup/delay, scheduled
             connection kills, scheduled node crash-restarts, process
             kills, and seeded disk faults); asserts every combine equals
             the running oracle, then reports the injection ledger,
             recovery counters, and WAL work, cross-checking that
             restarts == crashes + kill9s and (on a fresh WAL dir) that
             every WAL replay is a kill9 recovery; exits non-zero on any
             divergence or a wedged cluster. With --faults none it is
             the sim<->cluster parity check: the per-edge, per-kind
             message counts must equal the simulator's sequential run of
             the same workload exactly (`parity: OK`). --kill9 N@D
             appends process kills to the plan; a kill9 needs durable
             state, so it defaults --durability to a WAL in a fresh temp
             dir (--durability wal:DIR pins the directory, --fsync-every
             and --snapshot-every tune group commit and log truncation)

MLAP (oat-mlap second problem family — multi-level aggregation with
delays and deadlines, arXiv:1507.02378 / arXiv:1701.01936):
  mlap       runs one or all online flush policies on a seeded MLAP
             workload, computes the exact offline optimum when the
             instance fits the oracle's candidate-time cap, and reports
             per-policy service/delay cost, deadline misses, flushes,
             messages, and the ratio vs OPT; --json emits a stable
             oat-mlap-v1 document

QUERY (oat-query progressive online aggregation):
  query      runs one continuous query over a seeded fact stream
             (--stream uniform | zipf | phases; --facts/--keys/--gap-ms
             size it) against a live cluster. `group by key` multiplexes
             a forest of lazily-instantiated per-key trees over the one
             cluster; windows are either sliding (last-N facts, expired
             facts retired by refolding) or tumbling (fact-time windows,
             finalized exactly at each boundary). Prints every partial
             as it was emitted — value, coverage (monotone fraction of
             the stream applied), staleness bound, refinement seq — then
             the finals checked against the sequential oracle; exits
             non-zero on any mismatch or monotonicity violation. --json
             emits the stable oat-query-v1 document instead

EXAMPLES:
  oat run --tree kary:64:2 --policy rww --workload uniform:0.5:1000 --seed 7
  oat compare --tree star:32 --workload zipf:0.3:2000:1.0
  oat trace --tree path:4 --script \"c@0,w@3=10,w@3=20,c@0\"
  oat serve --tree kary:15:2 --policy rww
  oat chaos --tree kary:10:2 --workload uniform:0.5:120 --faults none
  oat mlap --workload adv:4:8 --policy all --json
  oat mlap --workload bursty:6:4:5 --tree kary:15:2 --seed 7
  oat query 'sum group by key window tumbling(100ms)' --stream zipf --keys 4
  oat query 'count group by key' --facts 200 --transport ring --json
";

/// Minimal `--flag value` extraction.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_tree(spec: &str) -> Result<Tree, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad number `{s}` in tree spec"))
    };
    match parts.as_slice() {
        ["pair"] => Ok(Tree::pair()),
        ["path", n] => Ok(Tree::path(num(n)?)),
        ["star", n] => Ok(Tree::star(num(n)?)),
        ["kary", n, k] => Ok(Tree::kary(num(n)?, num(k)?)),
        ["random", n, seed] => Ok(oat::workloads::random_tree(num(n)?, num(seed)? as u64)),
        ["caterpillar", s, l] => Ok(oat::workloads::caterpillar(num(s)?, num(l)?)),
        _ => Err(format!("bad tree spec `{spec}`")),
    }
}

fn parse_workload(spec: &str, tree: &Tree, seed: u64) -> Result<Vec<Request<i64>>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let f = |s: &str| -> Result<f64, String> {
        s.parse()
            .map_err(|_| format!("bad float `{s}` in workload spec"))
    };
    let u = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad number `{s}` in workload spec"))
    };
    match parts.as_slice() {
        ["uniform", wf, len] => Ok(oat::workloads::uniform(tree, u(len)?, f(wf)?, seed)),
        ["hotspot", wf, len, r, w] => Ok(oat::workloads::hotspot(
            tree,
            u(len)?,
            f(wf)?,
            u(r)?,
            u(w)?,
            seed,
        )),
        ["zipf", wf, len, alpha] => {
            Ok(oat::workloads::zipf(tree, u(len)?, f(wf)?, f(alpha)?, seed))
        }
        ["singlewriter", rounds, wpr] => Ok(oat::workloads::single_writer(
            tree,
            u(rounds)?,
            u(wpr)?,
            NodeId(0),
        )),
        _ => Err(format!("bad workload spec `{spec}`")),
    }
}

fn parse_script(spec: &str) -> Result<Vec<Request<i64>>, String> {
    spec.split(',')
        .map(|item| {
            let item = item.trim();
            if let Some(rest) = item.strip_prefix("c@") {
                let node: u32 = rest.parse().map_err(|_| format!("bad node in `{item}`"))?;
                Ok(Request::combine(NodeId(node)))
            } else if let Some(rest) = item.strip_prefix("w@") {
                let (node, value) = rest
                    .split_once('=')
                    .ok_or_else(|| format!("write item `{item}` needs =VALUE"))?;
                Ok(Request::write(
                    NodeId(node.parse().map_err(|_| format!("bad node in `{item}`"))?),
                    value
                        .parse()
                        .map_err(|_| format!("bad value in `{item}`"))?,
                ))
            } else {
                Err(format!("bad script item `{item}` (want c@N or w@N=V)"))
            }
        })
        .collect()
}

/// A named policy, dispatched dynamically at the CLI boundary.
enum PolicyChoice {
    Rww,
    Always,
    Never,
    Ab(u32, u32),
    RandomBreak(u32, u64),
}

fn parse_policy(spec: &str) -> Result<PolicyChoice, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let u = |s: &str| -> Result<u32, String> {
        s.parse()
            .map_err(|_| format!("bad number `{s}` in policy spec"))
    };
    match parts.as_slice() {
        ["rww"] => Ok(PolicyChoice::Rww),
        ["always"] => Ok(PolicyChoice::Always),
        ["never"] => Ok(PolicyChoice::Never),
        ["ab", a, b] => Ok(PolicyChoice::Ab(u(a)?, u(b)?)),
        ["randombreak", b, seed] => Ok(PolicyChoice::RandomBreak(u(b)?, u(seed)? as u64)),
        _ => Err(format!("bad policy spec `{spec}`")),
    }
}

struct RunStats {
    name: String,
    msgs: u64,
    combines: usize,
    read_lat_mean: f64,
    reads_local_pct: f64,
}

fn run_one<S: PolicySpec>(spec: &S, tree: &Tree, seq: &[Request<i64>], prewarm: bool) -> RunStats {
    let mut eng = Engine::new(tree.clone(), SumI64, spec, Schedule::Fifo, false);
    if prewarm {
        eng.prewarm_leases();
    }
    let chunk = oat::sim::sequential::run_sequential_on(&mut eng, seq, 0);
    let read_lats: Vec<u32> = seq
        .iter()
        .zip(&chunk.per_request_latency)
        .filter(|(q, _)| q.op.is_combine())
        .map(|(_, &l)| l)
        .collect();
    let reads = read_lats.len().max(1);
    RunStats {
        name: spec.name(),
        msgs: chunk.per_request_msgs.iter().sum(),
        combines: chunk.combines.len(),
        read_lat_mean: read_lats.iter().map(|&l| l as f64).sum::<f64>() / reads as f64,
        reads_local_pct: read_lats.iter().filter(|&&l| l == 0).count() as f64 * 100.0
            / reads as f64,
    }
}

fn run_policy(choice: &PolicyChoice, tree: &Tree, seq: &[Request<i64>]) -> RunStats {
    match choice {
        PolicyChoice::Rww => run_one(&RwwSpec, tree, seq, false),
        PolicyChoice::Always => run_one(&AlwaysLeaseSpec, tree, seq, true),
        PolicyChoice::Never => run_one(&NeverLeaseSpec, tree, seq, false),
        PolicyChoice::Ab(a, b) => run_one(&AbSpec::new(*a, *b), tree, seq, false),
        PolicyChoice::RandomBreak(b, s) => run_one(&RandomBreakSpec::new(*b, *s), tree, seq, false),
    }
}

fn print_stats_line(s: &RunStats, seq_len: usize, opt: u64, lb: u64) {
    println!(
        "  {:<18} {:>9} msgs  {:>7.3} msgs/req  ratio vs OPT {:>6}  vs NOPT-lb {:>6}  read lat {:>5.2} ({:>3.0}% local)",
        s.name,
        s.msgs,
        s.msgs as f64 / seq_len as f64,
        if opt > 0 { format!("{:.3}", s.msgs as f64 / opt as f64) } else { "-".into() },
        if lb > 0 { format!("{:.3}", s.msgs as f64 / lb as f64) } else { "-".into() },
        s.read_lat_mean,
        s.reads_local_pct,
    );
}

fn cmd_run(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let tree = parse_tree(flag(args, "--tree").ok_or("missing --tree")?)?;
        let policy = parse_policy(flag(args, "--policy").unwrap_or("rww"))?;
        let seed: u64 = flag(args, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|_| "bad --seed")?;
        let seq = parse_workload(
            flag(args, "--workload").ok_or("missing --workload")?,
            &tree,
            seed,
        )?;
        let opt = opt_total_cost(&tree, &seq);
        let lb = nopt_total_lower_bound(&tree, &seq);
        let stats = run_policy(&policy, &tree, &seq);
        println!(
            "tree: {} nodes, {} edges; workload: {} requests ({} combines)",
            tree.len(),
            tree.num_edges(),
            seq.len(),
            stats.combines
        );
        print_stats_line(&stats, seq.len(), opt, lb);
        println!(
            "  {:<18} {opt:>9} msgs (offline lease-based optimum)",
            "OPT"
        );
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn cmd_compare(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let tree = parse_tree(flag(args, "--tree").ok_or("missing --tree")?)?;
        let seed: u64 = flag(args, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|_| "bad --seed")?;
        let seq = parse_workload(
            flag(args, "--workload").ok_or("missing --workload")?,
            &tree,
            seed,
        )?;
        let opt = opt_total_cost(&tree, &seq);
        let lb = nopt_total_lower_bound(&tree, &seq);
        println!(
            "tree: {} nodes; workload: {} requests; OPT = {opt} msgs",
            tree.len(),
            seq.len()
        );
        for choice in [
            PolicyChoice::Rww,
            PolicyChoice::Ab(1, 3),
            PolicyChoice::Ab(2, 2),
            PolicyChoice::RandomBreak(2, seed),
            PolicyChoice::Always,
            PolicyChoice::Never,
        ] {
            let stats = run_policy(&choice, &tree, &seq);
            print_stats_line(&stats, seq.len(), opt, lb);
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn cmd_trace(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        // Two modes: `--workload` records a live oat-obs trace of the sim
        // and TCP runtimes; `--script` is the legacy step-by-step message
        // renderer for tiny hand-written sequences.
        if flag(args, "--workload").is_some() {
            return trace_workload(args);
        }
        let tree = parse_tree(flag(args, "--tree").ok_or("missing --tree")?)?;
        let script = parse_script(flag(args, "--script").ok_or("missing --script or --workload")?)?;
        // Traces are policy-generic but the renderer needs a concrete
        // engine; only RWW is supported here (the interesting one).
        match parse_policy(flag(args, "--policy").unwrap_or("rww"))? {
            PolicyChoice::Rww => {}
            _ => return Err("trace currently supports --policy rww only".into()),
        }
        let mut eng: Engine<RwwSpec, SumI64> =
            Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
        let trace = record_sequential(&mut eng, &script);
        print!("{}", trace.render());
        println!("\nfinal lease graph:");
        print!("{}", render_leases(&eng));
        println!("\ntotal messages: {}", eng.stats().total());
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Runs `$body` with `$spec` bound to the concrete policy value named by
/// `$choice` — the dynamic→static dispatch point for the net commands,
/// which need a statically typed `PolicySpec` for `Cluster::spawn`.
macro_rules! with_policy {
    ($choice:expr, $spec:ident => $body:expr) => {
        match $choice {
            PolicyChoice::Rww => {
                let $spec = RwwSpec;
                $body
            }
            PolicyChoice::Always => {
                let $spec = AlwaysLeaseSpec;
                $body
            }
            PolicyChoice::Never => {
                let $spec = NeverLeaseSpec;
                $body
            }
            PolicyChoice::Ab(a, b) => {
                let $spec = AbSpec::new(*a, *b);
                $body
            }
            PolicyChoice::RandomBreak(b, s) => {
                let $spec = RandomBreakSpec::new(*b, *s);
                $body
            }
        }
    };
}

/// `oat trace --workload`: record a live trace of the sim and net
/// runtimes executing one workload, then export it.
fn trace_workload(args: &[String]) -> Result<(), String> {
    let tree = parse_tree(flag(args, "--tree").ok_or("missing --tree")?)?;
    let policy = parse_policy(flag(args, "--policy").unwrap_or("rww"))?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let seq = parse_workload(
        flag(args, "--workload").ok_or("missing --workload")?,
        &tree,
        seed,
    )?;
    let depth: usize = flag(args, "--pipeline")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "bad --pipeline")?;
    let plan = FaultPlan::parse(flag(args, "--faults").unwrap_or("none"))?;
    let out = flag(args, "--out").unwrap_or("oat-trace.jsonl").to_string();
    let chrome = flag(args, "--chrome").map(str::to_string);
    with_policy!(&policy, spec =>
        trace_record(&tree, &spec, &seq, depth, plan, &out, chrome.as_deref()))
}

fn trace_record<S: PolicySpec>(
    tree: &Tree,
    spec: &S,
    seq: &[Request<i64>],
    depth: usize,
    plan: FaultPlan,
    out: &str,
    chrome: Option<&str>,
) -> Result<(), String>
where
    S::Node: 'static,
{
    oat_obs::install(oat_obs::DEFAULT_RING_CAPACITY);
    // Phase 1: the deterministic simulator (sim + lease categories).
    let sim = oat::sim::run_sequential(tree, SumI64, spec, Schedule::Fifo, seq, false);
    // Phase 2: the TCP cluster under pipelined load (request / frame /
    // reactor categories, plus fault events when --faults is given).
    let cluster = Cluster::spawn_with_faults(tree, SumI64, spec, false, plan)
        .map_err(|e| format!("cluster spawn: {e}"))?;
    let pipe = cluster
        .replay_pipelined(seq, depth.max(1))
        .map_err(|e| format!("pipelined replay: {e}"))?;
    cluster.quiesce();
    cluster.shutdown();
    oat_obs::disable();
    let trace = oat_obs::drain();
    let breakdown = oat_obs::phase_breakdown(&trace.events);
    std::fs::write(out, oat_obs::to_jsonl(&trace)).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "trace: {} events from {} rings ({} dropped); sim {} msgs, \
         pipelined {} reqs in {:.3}s",
        trace.events.len(),
        trace.rings,
        trace.dropped,
        sim.engine.stats().total(),
        seq.len(),
        pipe.elapsed.as_secs_f64(),
    );
    for (cat, n) in trace.category_counts() {
        println!("  {cat:<8} {n:>8}");
    }
    println!(
        "phases (of {} matched requests): poll {:.1}us  queue {:.1}us  \
         dispatch {:.1}us  wire {:.1}us",
        breakdown.matched,
        breakdown.poll.quantile_us(0.5),
        breakdown.queue.quantile_us(0.5),
        breakdown.dispatch.quantile_us(0.5),
        breakdown.wire.quantile_us(0.5),
    );
    let wires = oat_obs::wire_latency(&trace.events);
    println!(
        "edge wire latency ({} of {} frames matched tx→rx): p50 {:.1}us  p99 {:.1}us",
        wires.matched,
        wires.tx,
        wires.hist.quantile_us(0.5),
        wires.hist.quantile_us(0.99),
    );
    // Which links carried the load, and how long frames sat between
    // enqueue-at-sender and decode-at-receiver on each.
    let edges = oat_obs::wire_latency_by_edge(&trace.events);
    const SHOW: usize = 24;
    for ((from, to), w) in edges.iter().take(SHOW) {
        println!(
            "  {from:>3} -> {to:<3} {:>6} tx  {:>6} matched  p50 {:>8.1}us  p99 {:>9.1}us",
            w.tx,
            w.matched,
            w.hist.quantile_us(0.5),
            w.hist.quantile_us(0.99),
        );
    }
    if edges.len() > SHOW {
        println!("  ... and {} more edges", edges.len() - SHOW);
    }
    println!("wrote {out}");
    if let Some(cp) = chrome {
        std::fs::write(cp, oat_obs::to_chrome(&trace)).map_err(|e| format!("write {cp}: {e}"))?;
        println!("wrote {cp} (load in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let tree = parse_tree(flag(args, "--tree").unwrap_or("kary:15:2"))?;
        let policy = parse_policy(flag(args, "--policy").unwrap_or("rww"))?;
        let seed: u64 = flag(args, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|_| "bad --seed")?;
        let seq = parse_workload(
            flag(args, "--workload").unwrap_or("uniform:0.5:400"),
            &tree,
            seed,
        )?;
        let depth: usize = flag(args, "--pipeline")
            .unwrap_or("8")
            .parse()
            .map_err(|_| "bad --pipeline")?;
        let interval: u64 = flag(args, "--interval-ms")
            .unwrap_or("500")
            .parse()
            .map_err(|_| "bad --interval-ms")?;
        let ticks: u32 = flag(args, "--ticks")
            .unwrap_or("8")
            .parse()
            .map_err(|_| "bad --ticks")?;
        with_policy!(&policy, spec => run_top(&tree, &spec, &seq, depth, interval, ticks))
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Persistent per-node metrics connections for `oat top`: one
/// [`ClusterClient`](oat::net::ClusterClient) per node, opened lazily on
/// first use and reused across ticks instead of re-dialing TCP every
/// refresh. A failed poll drops that node's connection (it is re-dialed
/// on the next tick) and is reported to the frame as an error row rather
/// than aborting the view — a node may be mid-crash-restart.
struct MetricsPoller {
    clients: Vec<Option<oat::net::ClusterClient<i64>>>,
}

impl MetricsPoller {
    fn new(nodes: usize) -> Self {
        MetricsPoller {
            clients: (0..nodes).map(|_| None).collect(),
        }
    }

    fn poll(
        &mut self,
        cluster: &Cluster<SumI64>,
    ) -> Vec<(u32, Result<oat::net::NodeMetrics, String>)> {
        self.clients
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let node = i as u32;
                if slot.is_none() {
                    match cluster.client(NodeId(node)) {
                        Ok(c) => *slot = Some(c),
                        Err(e) => return (node, Err(e.to_string())),
                    }
                }
                match slot.as_mut().expect("connected above").metrics() {
                    Ok(m) => (node, Ok(m)),
                    Err(e) => {
                        *slot = None;
                        (node, Err(e.to_string()))
                    }
                }
            })
            .collect()
    }
}

/// Renders one `oat top` frame into a string (no cursor-movement codes;
/// failed metrics rows are dimmed with a plain SGR attribute).
fn top_frame(
    cluster: &Cluster<SumI64>,
    trace: &oat_obs::Trace,
    rows: &[(u32, Result<oat::net::NodeMetrics, String>)],
    tick: u32,
    ticks: u32,
    elapsed: std::time::Duration,
) -> String {
    use std::fmt::Write as _;
    let b = oat_obs::phase_breakdown(&trace.events);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "oat top — {} nodes, policy {}, tick {tick}/{ticks}, {:.1}s",
        cluster.tree().len(),
        cluster.policy_name(),
        elapsed.as_secs_f64(),
    );
    let rate = if elapsed.as_secs_f64() > 0.0 {
        b.requests as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    let _ = writeln!(
        s,
        "  requests {:>7} ({:>7.0} req/s)  lat p50 {:>7.1}us  p99 {:>7.1}us  p999 {:>7.1}us",
        b.requests,
        rate,
        b.latency.quantile_us(0.50),
        b.latency.quantile_us(0.99),
        b.latency.quantile_us(0.999),
    );
    let _ = writeln!(
        s,
        "  phase p50 (of {} matched): poll {:.1}us  queue {:.1}us  dispatch {:.1}us  wire {:.1}us",
        b.matched,
        b.poll.quantile_us(0.5),
        b.queue.quantile_us(0.5),
        b.dispatch.quantile_us(0.5),
        b.wire.quantile_us(0.5),
    );
    let mut cats = String::new();
    for (cat, n) in trace.category_counts() {
        let _ = write!(cats, "{cat} {n}  ");
    }
    let _ = writeln!(
        s,
        "  events: {}(dropped {})",
        cats.trim_end(),
        trace.dropped
    );
    let _ = writeln!(
        s,
        "  {:>4}  {:>8} {:>6} {:>6}  {:>5} {:>7}  {:>6} {:>5} {:>8}",
        "node", "served", "queue", "peak", "taken", "granted", "reconn", "rto", "restarts"
    );
    // The busiest nodes by combines served; nodes whose poll failed (a
    // node may be mid-crash-restart under --faults) become dimmed rows.
    let mut ok: Vec<&oat::net::NodeMetrics> =
        rows.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
    ok.sort_by_key(|m| std::cmp::Reverse(m.combines_served));
    for m in ok.iter().take(8) {
        let _ = writeln!(
            s,
            "  {:>4}  {:>8} {:>6} {:>6}  {:>5} {:>7}  {:>6} {:>5} {:>8}",
            m.node,
            m.combines_served,
            m.queue_depth,
            m.queue_peak,
            m.leases_taken,
            m.leases_granted,
            m.reconnects,
            m.timeouts,
            m.restarts,
        );
    }
    for (node, err) in rows
        .iter()
        .filter_map(|(n, r)| r.as_ref().err().map(|e| (n, e)))
        .take(4)
    {
        let _ = writeln!(s, "  \x1b[2m{node:>4}  poll failed: {err}\x1b[0m");
    }
    s
}

fn run_top<S: PolicySpec>(
    tree: &Tree,
    spec: &S,
    seq: &[Request<i64>],
    depth: usize,
    interval_ms: u64,
    ticks: u32,
) -> Result<(), String>
where
    S::Node: 'static,
{
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    let cluster =
        Cluster::spawn(tree, SumI64, spec, false).map_err(|e| format!("cluster spawn: {e}"))?;
    oat_obs::install(oat_obs::DEFAULT_RING_CAPACITY);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut err: Option<String> = None;
    std::thread::scope(|scope| {
        // Background load: the workload replayed pipelined, over and over,
        // until the foreground view has shown its last tick.
        let load = scope.spawn(|| {
            let mut loops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Err(e) = cluster.replay_pipelined(seq, depth.max(1)) {
                    return Err(format!("pipelined replay: {e}"));
                }
                loops += 1;
            }
            Ok(loops)
        });
        let mut prev_lines = 0usize;
        let mut poller = MetricsPoller::new(tree.len());
        for tick in 1..=ticks {
            std::thread::sleep(Duration::from_millis(interval_ms));
            let rows = poller.poll(&cluster);
            let frame = top_frame(
                &cluster,
                &oat_obs::drain(),
                &rows,
                tick,
                ticks,
                start.elapsed(),
            );
            // Redraw in place: move the cursor back up over the previous
            // frame and clear each line as it is rewritten.
            if prev_lines > 0 {
                print!("\x1b[{prev_lines}A");
            }
            for line in frame.lines() {
                println!("\x1b[2K{line}");
            }
            prev_lines = frame.lines().count();
        }
        stop.store(true, Ordering::Relaxed);
        match load.join().expect("load thread panicked") {
            Ok(loops) => println!("load: {loops} full workload replays"),
            Err(e) => err = Some(e),
        }
    });
    oat_obs::disable();
    cluster.quiesce();
    cluster.shutdown();
    err.map_or(Ok(()), Err)
}

fn cmd_serve(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let tree = parse_tree(flag(args, "--tree").unwrap_or("kary:15:2"))?;
        let policy = parse_policy(flag(args, "--policy").unwrap_or("rww"))?;
        let transport = match flag(args, "--transport") {
            None => oat::net::TransportKind::default(),
            Some(s) => oat::net::TransportKind::parse(s)
                .ok_or_else(|| format!("bad --transport `{s}` (want tcp | uds | ring)"))?,
        };
        with_policy!(&policy, spec => serve_cluster(&tree, &spec, transport))
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn serve_cluster<S: PolicySpec>(
    tree: &Tree,
    spec: &S,
    transport: oat::net::TransportKind,
) -> Result<(), String>
where
    S::Node: 'static,
{
    let cfg = NetConfig {
        transport,
        ..NetConfig::default()
    };
    let cluster = Cluster::spawn_with(
        tree,
        SumI64,
        spec,
        false,
        oat::core::fault::FaultPlan::default(),
        cfg,
    )
    .map_err(|e| format!("cluster spawn: {e}"))?;
    println!(
        "oat-net cluster up: {} nodes, policy {}, one {} listener per node",
        tree.len(),
        cluster.policy_name(),
        transport.name()
    );
    for (i, addr) in cluster.addrs().iter().enumerate() {
        println!("  node {i:>3}  {addr}");
    }
    println!("commands: c@N | w@N=V | metrics [N] | stats | quit");
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let cmd = line.trim();
        if cmd.is_empty() {
            continue;
        }
        match serve_command(&cluster, cmd) {
            Ok(Some(out)) => println!("{out}"),
            Ok(None) => break,
            Err(e) => println!("error: {e}"),
        }
    }
    let report = cluster.shutdown();
    println!("cluster down; total messages: {}", report.stats.total());
    Ok(())
}

/// Executes one interactive `serve` command; `Ok(None)` means quit.
fn serve_command(cluster: &Cluster<SumI64>, cmd: &str) -> Result<Option<String>, String> {
    let check_node = |n: NodeId| -> Result<NodeId, String> {
        if (n.0 as usize) < cluster.tree().len() {
            Ok(n)
        } else {
            Err(format!(
                "node {} out of range 0..{}",
                n.0,
                cluster.tree().len()
            ))
        }
    };
    if cmd == "quit" || cmd == "exit" {
        return Ok(None);
    }
    if cmd == "stats" {
        cluster.quiesce();
        return cluster.stats_json().map(Some).map_err(|e| e.to_string());
    }
    if let Some(rest) = cmd.strip_prefix("metrics") {
        cluster.quiesce();
        let rest = rest.trim();
        if rest.is_empty() {
            return cluster.metrics_json().map(Some).map_err(|e| e.to_string());
        }
        let n: u32 = rest.parse().map_err(|_| format!("bad node `{rest}`"))?;
        return cluster
            .node_metrics(check_node(NodeId(n))?)
            .map(|m| Some(m.to_json()))
            .map_err(|e| e.to_string());
    }
    let mut out = String::new();
    for req in parse_script(cmd)? {
        let node = check_node(req.node)?;
        let mut client = cluster
            .client(node)
            .map_err(|e| format!("connect to node {}: {e}", node.0))?;
        if !out.is_empty() {
            out.push('\n');
        }
        match req.op {
            ReqOp::Combine => {
                let v = client.combine().map_err(|e| e.to_string())?;
                out.push_str(&format!("combine @ {} = {v}", node.0));
            }
            ReqOp::Write(v) => {
                client.write(v).map_err(|e| e.to_string())?;
                out.push_str(&format!("write   @ {} <- {v}", node.0));
            }
        }
    }
    cluster.quiesce();
    out.push_str(&format!(
        "\n  [{} messages total]",
        cluster.total_messages()
    ));
    Ok(Some(out))
}

fn cmd_chaos(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let tree = parse_tree(flag(args, "--tree").ok_or("missing --tree")?)?;
        let policy = parse_policy(flag(args, "--policy").unwrap_or("rww"))?;
        let seed: u64 = flag(args, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|_| "bad --seed")?;
        let seq = parse_workload(
            flag(args, "--workload").ok_or("missing --workload")?,
            &tree,
            seed,
        )?;
        let mut plan = FaultPlan::parse(
            flag(args, "--faults").unwrap_or("seed:7,drop:0.05,dup:0.05,delay:0.05"),
        )?;
        if let Some(spec) = flag(args, "--kill9") {
            for part in spec.split(',') {
                let (n, d) = part
                    .split_once('@')
                    .ok_or_else(|| format!("bad --kill9 item `{part}` (want NODE@DELIVERED)"))?;
                plan.kill9s.push(CrashNode {
                    node: NodeId(n.parse().map_err(|_| format!("bad --kill9 node `{n}`"))?),
                    after_delivered: d
                        .parse()
                        .map_err(|_| format!("bad --kill9 delivered `{d}`"))?,
                });
            }
        }
        let fsync_every: u64 = flag(args, "--fsync-every")
            .unwrap_or("8")
            .parse()
            .map_err(|_| "bad --fsync-every")?;
        let snapshot_every: u64 = flag(args, "--snapshot-every")
            .unwrap_or("4096")
            .parse()
            .map_err(|_| "bad --snapshot-every")?;
        // A process kill needs somewhere durable to recover from, so
        // `--kill9` without an explicit backend gets a fresh WAL in a
        // temp dir. A fresh dir also arms the ci cross-check: cold
        // start finds nothing, so every WAL replay is a kill9 recovery.
        let fresh_wal_dir = || {
            let dir = std::env::temp_dir().join(format!("oat-chaos-wal-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let (durability, fresh_wal) = match flag(args, "--durability") {
            None if plan.kill9s.is_empty() => (DurabilityMode::Memory, false),
            None | Some("wal") => {
                let mut wal = WalConfig::new(fresh_wal_dir());
                wal.fsync_every = fsync_every;
                wal.snapshot_every = snapshot_every;
                (DurabilityMode::Wal(wal), true)
            }
            Some("memory") => (DurabilityMode::Memory, false),
            Some(s) => match s.strip_prefix("wal:") {
                Some(dir) if !dir.is_empty() => {
                    let mut wal = WalConfig::new(dir);
                    wal.fsync_every = fsync_every;
                    wal.snapshot_every = snapshot_every;
                    (DurabilityMode::Wal(wal), false)
                }
                _ => return Err(format!("bad --durability `{s}` (want memory | wal[:DIR])")),
            },
        };
        let transport = match flag(args, "--transport") {
            None => oat::net::TransportKind::default(),
            Some(s) => oat::net::TransportKind::parse(s)
                .ok_or_else(|| format!("bad --transport `{s}` (want tcp | uds | ring)"))?,
        };
        let cfg = NetConfig {
            durability,
            transport,
            ..NetConfig::default()
        };
        with_policy!(&policy, spec => chaos_run(&tree, &spec, &seq, plan, cfg, fresh_wal))
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn chaos_run<S: PolicySpec>(
    tree: &Tree,
    spec: &S,
    seq: &[Request<i64>],
    plan: FaultPlan,
    cfg: NetConfig,
    fresh_wal: bool,
) -> Result<(), String>
where
    S::Node: 'static,
{
    use std::time::Duration;
    let kills_planned = plan.kills.len();
    let crashes_planned = plan.crashes.len();
    let kill9s_planned = plan.kill9s.len();
    // Without faults a sequential replay is confluent, so the cluster
    // must send exactly the simulator's messages, edge by edge.
    let sim = plan
        .is_empty()
        .then(|| oat::sim::run_sequential(tree, SumI64, spec, Schedule::Fifo, seq, false));
    let durable = matches!(cfg.durability, DurabilityMode::Wal(_));
    let cluster = Cluster::spawn_with(tree, SumI64, spec, false, plan, cfg)
        .map_err(|e| format!("cluster spawn: {e}"))?;
    println!(
        "chaos: {} nodes, policy {}, {} requests; plan: {} kills, {} crashes, \
         {} kill9s scheduled; durability {}",
        tree.len(),
        cluster.policy_name(),
        seq.len(),
        kills_planned,
        crashes_planned,
        kill9s_planned,
        if durable { "wal" } else { "memory" },
    );
    let start = std::time::Instant::now();
    let mut clients: Vec<Option<oat::net::ClusterClient<i64>>> =
        (0..tree.len()).map(|_| None).collect();
    let mut last = vec![0i64; tree.len()];
    let mut combines = 0u64;
    for (i, q) in seq.iter().enumerate() {
        let slot = &mut clients[q.node.idx()];
        let client = match slot {
            Some(c) => c,
            None => {
                let mut c = cluster
                    .client(q.node)
                    .map_err(|e| format!("connect to node {}: {e}", q.node.0))?;
                c.set_timeout(Some(Duration::from_millis(250)), 240)
                    .map_err(|e| format!("arm timeout: {e}"))?;
                slot.insert(c)
            }
        };
        match &q.op {
            ReqOp::Write(v) => {
                client
                    .write(*v)
                    .map_err(|e| format!("request {i}: write failed: {e}"))?;
                last[q.node.idx()] = *v;
            }
            ReqOp::Combine => {
                let got = client
                    .combine()
                    .map_err(|e| format!("request {i}: combine failed: {e}"))?;
                let want: i64 = last.iter().sum();
                if got != want {
                    return Err(format!(
                        "request {i}: combine at node {} returned {got}, oracle says {want} \
                         — STRICT CONSISTENCY VIOLATED",
                        q.node.0
                    ));
                }
                combines += 1;
            }
        }
        if !cluster.quiesce_for(Duration::from_secs(30)) {
            return Err(format!("request {i}: cluster failed to drain — wedged"));
        }
    }
    let elapsed = start.elapsed();
    println!(
        "  {} combines, every one equal to the sequential oracle, in {:.3}s",
        combines,
        elapsed.as_secs_f64()
    );
    if let Some(sim) = &sim {
        let live = cluster.stats().map_err(|e| format!("stats: {e}"))?;
        let want = sim.engine.stats();
        if live.per_edge_counts() != want.per_edge_counts() {
            return Err(format!(
                "PARITY BROKEN: the cluster sent {} messages, the simulator {}, \
                 and the per-edge counts differ",
                live.total(),
                want.total()
            ));
        }
        println!(
            "  parity: OK — per-edge counts equal the simulator's ({} messages)",
            want.total()
        );
    }
    let (drops, dups, delays, kills, crashes) = cluster.injected().snapshot();
    let (kill9s, torn_tails, fsync_fails) = cluster.injected().snapshot_process();
    let report = cluster.shutdown();
    println!(
        "  injected:  drops {drops}, dups {dups}, delays {delays}, \
         conns killed {kills}, crashes {crashes}, kill9s {kill9s}, \
         torn tails {torn_tails}, fsync fails {fsync_fails}"
    );
    println!(
        "  recovered: reconnects {}, retransmits {}, rto expiries {}, \
         restarts {} (kill9 {})",
        report.faults.reconnects,
        report.faults.retransmits,
        report.faults.timeouts,
        report.faults.restarts,
        report.faults.kill9s,
    );
    if durable {
        println!(
            "  wal:       {} records ({} B), {} fsyncs ({} failed), \
             {} snapshots, {} replays, {} B torn",
            report.wal.records,
            report.wal.appended_bytes,
            report.wal.fsyncs,
            report.wal.fsync_failures,
            report.wal.snapshots,
            report.wal.replays,
            report.wal.torn_bytes,
        );
    }
    if !report.dead_nodes.is_empty() {
        return Err(format!(
            "dead nodes at shutdown: {:?}",
            report.dead_nodes.iter().map(|n| n.0).collect::<Vec<_>>()
        ));
    }
    if kills != kills_planned as u64
        || crashes != crashes_planned as u64
        || kill9s != kill9s_planned as u64
    {
        return Err(format!(
            "schedule incomplete: {kills}/{kills_planned} kills, \
             {crashes}/{crashes_planned} crashes, \
             {kill9s}/{kill9s_planned} kill9s fired — the workload was \
             too small to reach the scheduled trigger points"
        ));
    }
    // Cross-checks between the ledger and the recovery counters: every
    // injected process fault must show up as exactly one restart-grade
    // recovery, and vice versa.
    if report.faults.kill9s != kill9s {
        return Err(format!(
            "ledger/counter mismatch: {kill9s} kill9s injected but nodes \
             recorded {}",
            report.faults.kill9s
        ));
    }
    if report.faults.restarts != crashes + kill9s {
        return Err(format!(
            "restart accounting broken: {} restarts != {crashes} crashes \
             + {kill9s} kill9s",
            report.faults.restarts
        ));
    }
    if fresh_wal && report.wal.replays != kill9s {
        return Err(format!(
            "wal replay accounting broken: fresh log dir, so every replay \
             is a kill9 recovery, yet {} replays != {kill9s} kill9s",
            report.wal.replays
        ));
    }
    println!("  chaos: OK");
    Ok(())
}

/// Parses an `oat mlap` workload spec into an instance. `adv:DEPTH:LEGS`
/// builds its own spider topology; `bursty:BURSTS:SIZE:WINDOW` and
/// `delay:LEN:GAP` generate requests on `tree`.
fn parse_mlap_workload(
    spec: &str,
    tree: &Tree,
    seed: u64,
) -> Result<oat::mlap::MlapInstance, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad number `{s}` in mlap workload spec"))
    };
    match parts.as_slice() {
        ["adv", d, l] => Ok(oat::workloads::mlap::adversarial_deadline(num(d)?, num(l)?)),
        ["bursty", b, s, w] => Ok(oat::workloads::mlap::bursty_deadline(
            tree,
            num(b)?,
            num(s)?,
            num(w)? as u64,
            seed,
        )),
        ["delay", len, gap] => Ok(oat::workloads::mlap::uniform_delay(
            tree,
            num(len)?,
            num(gap)? as u64,
            seed,
        )),
        _ => Err(format!(
            "bad mlap workload spec `{spec}` \
             (want adv:DEPTH:LEGS | bursty:BURSTS:SIZE:WINDOW | delay:LEN:GAP)"
        )),
    }
}

fn cmd_mlap(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let tree = parse_tree(flag(args, "--tree").unwrap_or("kary:15:2"))?;
        let seed: u64 = flag(args, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|_| "bad --seed")?;
        let wspec = flag(args, "--workload").unwrap_or("adv:4:8");
        let inst = parse_mlap_workload(wspec, &tree, seed)?;
        let pspec = flag(args, "--policy").unwrap_or("all");
        let mut policies: Vec<Box<dyn oat::mlap::FlushPolicy>> = if pspec == "all" {
            oat::mlap::all_policies()
        } else {
            vec![oat::mlap::parse_flush_policy(pspec)?]
        };
        let opt = oat::offline::mlap_opt(&inst);
        let runs: Vec<oat::mlap::MlapRun> = policies
            .iter_mut()
            .map(|p| oat::mlap::run_mlap(&inst, p.as_mut(), Schedule::Fifo))
            .collect();
        let depth = inst.depth();
        let ratio_of =
            |total: u64| -> Option<f64> { opt.filter(|&o| o > 0).map(|o| total as f64 / o as f64) };
        if args.iter().any(|a| a == "--json") {
            use std::fmt::Write as _;
            let mut pols = String::from("[");
            for (i, r) in runs.iter().enumerate() {
                if i > 0 {
                    pols.push_str(", ");
                }
                let ratio =
                    ratio_of(r.total_cost()).map_or("null".to_string(), |x| format!("{x:.3}"));
                let _ = write!(
                    pols,
                    "{{\"name\": \"{}\", \"service_cost\": {}, \"delay_cost\": {}, \
                     \"deadline_misses\": {}, \"flushes\": {}, \"messages\": {}, \
                     \"total_cost\": {}, \"ratio_vs_opt\": {}}}",
                    r.policy,
                    r.service_cost,
                    r.delay_cost,
                    r.deadline_misses,
                    r.flushes.len(),
                    r.messages,
                    r.total_cost(),
                    ratio,
                );
            }
            pols.push(']');
            println!(
                "{{\"schema\": \"oat-mlap-v1\", \"model\": \"{}\", \"workload\": \"{}\", \
                 \"seed\": {}, \"nodes\": {}, \"depth\": {}, \"requests\": {}, \
                 \"opt\": {}, \"policies\": {}}}",
                inst.model.name(),
                wspec,
                seed,
                inst.tree.len(),
                depth,
                inst.requests.len(),
                opt.map_or("null".to_string(), |o| o.to_string()),
                pols,
            );
        } else {
            println!(
                "mlap: {} model, {} nodes, depth {}, {} requests, OPT {}",
                inst.model.name(),
                inst.tree.len(),
                depth,
                inst.requests.len(),
                opt.map_or_else(
                    || "n/a (over the oracle's candidate-time cap)".to_string(),
                    |o| o.to_string()
                ),
            );
            println!(
                "  {:<16} {:>8} {:>7} {:>7} {:>8} {:>9} {:>8} {:>7}",
                "policy", "service", "delay", "misses", "flushes", "messages", "total", "ratio"
            );
            for r in &runs {
                println!(
                    "  {:<16} {:>8} {:>7} {:>7} {:>8} {:>9} {:>8} {:>7}",
                    r.policy,
                    r.service_cost,
                    r.delay_cost,
                    r.deadline_misses,
                    r.flushes.len(),
                    r.messages,
                    r.total_cost(),
                    ratio_of(r.total_cost()).map_or("n/a".to_string(), |x| format!("{x:.2}")),
                );
            }
            if inst.model == oat::mlap::CostModel::Deadline {
                println!(
                    "  certified (unit weights): odepth service ≤ (depth+1)·OPT = {}·OPT",
                    depth as u64 + 1
                );
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Spawns a cluster under the right operator for the query op and runs
/// the continuous-query engine against it.
fn run_query_on<S: PolicySpec>(
    spec: &S,
    tree: &Tree,
    qspec: &oat::query::QuerySpec,
    facts: &[oat::workloads::facts::Fact],
    cfg: NetConfig,
) -> Result<oat::query::QueryRun, String>
where
    S::Node: 'static,
{
    fn go<A: AggOp<Value = i64>, S: PolicySpec>(
        op: A,
        spec: &S,
        tree: &Tree,
        qspec: &oat::query::QuerySpec,
        facts: &[oat::workloads::facts::Fact],
        cfg: NetConfig,
    ) -> Result<oat::query::QueryRun, String>
    where
        S::Node: 'static,
    {
        let cluster = Cluster::spawn_with(tree, op, spec, false, FaultPlan::default(), cfg)
            .map_err(|e| format!("cluster spawn: {e}"))?;
        oat::query::run(&cluster, qspec, facts).map_err(|e| format!("query run: {e}"))
    }
    use oat::query::OpKind;
    match qspec.op {
        OpKind::Sum | OpKind::Count => go(SumI64, spec, tree, qspec, facts, cfg),
        OpKind::Min => go(MinI64, spec, tree, qspec, facts, cfg),
        OpKind::Max => go(MaxI64, spec, tree, qspec, facts, cfg),
    }
}

fn cmd_query(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        // The spec is the leading run of non-flag arguments, so both
        // `oat query 'sum group by key'` and `oat query sum group by
        // key` parse.
        let split = args
            .iter()
            .position(|a| a.starts_with("--"))
            .unwrap_or(args.len());
        let spec_str = args[..split].join(" ");
        if spec_str.is_empty() {
            return Err(
                "missing query spec, e.g. `sum group by key window tumbling(100ms)`".into(),
            );
        }
        let qspec: oat::query::QuerySpec = spec_str.parse()?;
        let rest = &args[split..];
        let tree_spec = flag(rest, "--tree").unwrap_or("kary:7:2");
        let tree = parse_tree(tree_spec)?;
        let policy_spec = flag(rest, "--policy").unwrap_or("rww");
        let policy = parse_policy(policy_spec)?;
        let facts_n: usize = flag(rest, "--facts")
            .unwrap_or("300")
            .parse()
            .map_err(|_| "bad --facts")?;
        let keys: u32 = flag(rest, "--keys")
            .unwrap_or("4")
            .parse()
            .map_err(|_| "bad --keys")?;
        let gap_ms: u64 = flag(rest, "--gap-ms")
            .unwrap_or("4")
            .parse()
            .map_err(|_| "bad --gap-ms")?;
        let seed: u64 = flag(rest, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|_| "bad --seed")?;
        let stream = flag(rest, "--stream").unwrap_or("zipf");
        let facts = oat::workloads::facts::facts_by_name(stream, facts_n, keys, gap_ms, seed)
            .ok_or_else(|| format!("bad --stream `{stream}` (want uniform | zipf | phases)"))?;
        let transport = match flag(rest, "--transport") {
            None => oat::net::TransportKind::Tcp,
            Some(s) => oat::net::TransportKind::parse(s)
                .ok_or_else(|| format!("bad --transport `{s}` (want tcp | uds | ring)"))?,
        };
        let cfg = NetConfig {
            transport,
            ..NetConfig::default()
        };
        let run = with_policy!(&policy, spec =>
            run_query_on(&spec, &tree, &qspec, &facts, cfg))?;
        let meta = oat::query::json::ReportMeta {
            stream,
            seed,
            keys,
            transport: transport.name(),
            tree: tree_spec,
            policy: policy_spec,
        };
        if rest.iter().any(|a| a == "--json") {
            println!("{}", oat::query::json::report_json(&run, &facts, &meta));
        } else {
            println!(
                "query: {qspec}\n  stream {stream} facts={} keys={keys} seed={seed} \
                 gap={gap_ms}ms transport={} tree={tree_spec} policy={policy_spec}",
                facts.len(),
                transport.name(),
            );
            const SHOW: usize = 120;
            for p in run.partials.iter().take(SHOW) {
                println!(
                    "  {} key {:>3} win {:>3} seq {:>4}  value {:>12}  coverage {:>6.1}%  \
                     stale {:>3}  at {:>6}ms  +{:>8.1}ms",
                    if p.is_final { "FINAL  " } else { "partial" },
                    p.key,
                    p.window,
                    p.refine_seq,
                    p.value,
                    p.coverage * 100.0,
                    p.staleness,
                    p.at_ms,
                    p.wall_ms,
                );
            }
            if run.partials.len() > SHOW {
                println!("  ... and {} more partials", run.partials.len() - SHOW);
            }
            let oracle = oat::query::oracle_finals(&qspec, &facts);
            println!("finals vs sequential oracle:");
            let mut finals = run.finals.clone();
            finals.sort_by_key(|f| (f.key, f.window));
            for f in &finals {
                let want = oracle
                    .iter()
                    .find(|o| o.key == f.key && o.window == f.window)
                    .map(|o| o.value);
                println!(
                    "  key {:>3} window {:>3}: {} (oracle {}) {}",
                    f.key,
                    f.window,
                    f.value,
                    want.map_or("?".to_string(), |v| v.to_string()),
                    if want == Some(f.value) {
                        "ok"
                    } else {
                        "MISMATCH"
                    },
                );
            }
            println!(
                "refinement: first-partial p50 {:.1}ms p99 {:.1}ms, t95-coverage {}, \
                 {} partials ({} pushed), min per key {}",
                run.stats.first_partial_p50_ms,
                run.stats.first_partial_p99_ms,
                run.stats
                    .t95_coverage_ms
                    .map_or("n/a".to_string(), |t| format!("{t:.1}ms")),
                run.stats.partials_total,
                run.stats.pushes_rx,
                run.min_partials_per_key(),
            );
        }
        let ok = run.matches_oracle(&facts) && run.coverage_monotone() && run.refine_seq_monotone();
        if !ok {
            return Err("query verdicts failed (oracle match / monotonicity)".into());
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_specs_parse() {
        assert_eq!(parse_tree("pair").unwrap().len(), 2);
        assert_eq!(parse_tree("path:5").unwrap().len(), 5);
        assert_eq!(parse_tree("kary:7:2").unwrap().len(), 7);
        assert_eq!(parse_tree("caterpillar:3:2").unwrap().len(), 9);
        assert!(parse_tree("blob:3").is_err());
        assert!(parse_tree("path:x").is_err());
    }

    #[test]
    fn workload_specs_parse() {
        let tree = parse_tree("star:10").unwrap();
        assert_eq!(
            parse_workload("uniform:0.5:100", &tree, 1).unwrap().len(),
            100
        );
        assert_eq!(
            parse_workload("zipf:0.3:50:1.0", &tree, 1).unwrap().len(),
            50
        );
        assert!(parse_workload("uniform:0.5", &tree, 1).is_err());
    }

    #[test]
    fn script_parses() {
        let s = parse_script("c@0, w@3=10 ,c@1").unwrap();
        assert_eq!(s.len(), 3);
        assert!(s[0].op.is_combine());
        assert_eq!(s[1].node, NodeId(3));
        assert!(parse_script("x@1").is_err());
        assert!(parse_script("w@1").is_err());
    }

    #[test]
    fn policy_specs_parse() {
        assert!(matches!(parse_policy("rww").unwrap(), PolicyChoice::Rww));
        assert!(matches!(
            parse_policy("ab:2:3").unwrap(),
            PolicyChoice::Ab(2, 3)
        ));
        assert!(matches!(
            parse_policy("randombreak:3:9").unwrap(),
            PolicyChoice::RandomBreak(3, 9)
        ));
        assert!(parse_policy("ab:2").is_err());
    }

    #[test]
    fn flag_extraction() {
        let args: Vec<String> = ["--tree", "pair", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--tree"), Some("pair"));
        assert_eq!(flag(&args, "--seed"), Some("9"));
        assert_eq!(flag(&args, "--nope"), None);
    }
}
