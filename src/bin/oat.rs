//! `oat` — command-line driver for the aggregation simulator and cluster.
//!
//! Every subcommand is one entry of [`COMMANDS`]: its flags with their
//! defaults, and its `oat help` paragraph. The parser, the USAGE block
//! of `oat help` and every usage error read only that table, so a flag
//! the table does not declare is an error (exit 2), never ignored. Run
//! `oat help` for the usage. Throughput and latency are measured by
//! `benchmark/run.sh`, not here.

use oat::core::fault::FaultPlan;
use oat::core::policy::ab::AbSpec;
use oat::core::policy::random::RandomBreakSpec;
use oat::net::{Cluster, DurabilityMode, NetConfig, TransportKind, WalConfig};
use oat::offline::nopt::nopt_total_lower_bound;
use oat::offline::opt_dp::opt_total_cost;
use oat::prelude::*;
use oat::sim::trace::record_sequential;
use oat::sim::viz::render_leases;
use oat::sim::{Engine, Schedule};
use oat_core::policy::PolicySpec;
use oat_core::request::{ReqOp, Request};
use oat_obs::Json;
use std::collections::HashMap;
use std::io::BufRead;

/// One flag of a subcommand.
struct Flag {
    name: &'static str,
    /// Placeholder for the value in usage lines; `None` for a switch.
    metavar: Option<&'static str>,
    /// Value when the flag is absent; `None` leaves it unset.
    default: Option<&'static str>,
    required: bool,
}

const fn req(name: &'static str, metavar: &'static str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        default: None,
        required: true,
    }
}

const fn opt(name: &'static str, metavar: &'static str, default: Option<&'static str>) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        default,
        required: false,
    }
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        metavar: None,
        default: None,
        required: false,
    }
}

const TREE: Flag = req("--tree", "TREE");
const WORKLOAD: Flag = req("--workload", "WORKLOAD");
const POLICY: Flag = opt("--policy", "POLICY", Some("rww"));
const SEED: Flag = opt("--seed", "N", Some("42"));
const TRANSPORT: Flag = opt("--transport", "tcp|uds|ring", Some("tcp"));
const JSON: Flag = switch("--json");

/// One subcommand, or one form of it (`trace` has two).
struct Command {
    name: &'static str,
    /// The flag that selects this form among entries sharing `name`.
    form: Option<&'static str>,
    /// Placeholder for the required leading non-flag words, joined into
    /// one value (`query`'s spec); `None` when the command takes none.
    positional: Option<&'static str>,
    flags: &'static [Flag],
    /// Paragraph for `oat help`.
    about: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run", form: None, positional: None, run: cmd_run,
        flags: &[TREE, WORKLOAD, POLICY, SEED],
        about: "bills a policy against the offline lease-based optimum (OPT) \
                and the NOPT lower bound in the sequential simulator: \
                messages, both ratios and read latency. --policy all bills \
                rww, ab:1:3, ab:2:2, randombreak:2:SEED, always and never" },
    Command { name: "trace", form: Some("--script"), positional: None, run: cmd_trace_script,
        flags: &[TREE, req("--script", "ITEMS"), POLICY],
        about: "with --script, renders the simulator's message-by-message \
                run of a hand-written script under rww and the final leases" },
    Command { name: "trace", form: Some("--workload"), positional: None, run: cmd_trace_workload,
        flags: &[TREE, WORKLOAD, POLICY, SEED, opt("--pipeline", "N", Some("4")),
            opt("--faults", "FAULTS", Some("none")), opt("--out", "PATH", Some("oat-trace.jsonl")),
            opt("--chrome", "PATH", None)],
        about: "with --workload, records an oat-obs trace of the workload \
                run in the simulator, then pipelined on a cluster under \
                --faults; prints event counts, phase p50s and per-edge wire \
                latency, and writes oat-trace-v1 JSONL to --out (--chrome: \
                Chrome trace_event JSON too)" },
    Command { name: "top", form: None, positional: None, run: cmd_top,
        flags: &[opt("--tree", "TREE", Some("kary:15:2")),
            opt("--workload", "WORKLOAD", Some("uniform:0.5:400")), POLICY, SEED,
            opt("--pipeline", "N", Some("8")), opt("--interval-ms", "N", Some("500")),
            opt("--ticks", "N", Some("8"))],
        about: "loops the workload pipelined on a cluster and redraws a live \
                view every --interval-ms, --ticks times: request rate, phase \
                p50s, event counts, and the busiest nodes' counters" },
    Command { name: "serve", form: None, positional: None, run: cmd_serve,
        flags: &[opt("--tree", "TREE", Some("kary:15:2")), POLICY, TRANSPORT],
        about: "spawns a cluster on loopback — one listener per tree node on \
                the chosen transport, all nodes served by a pool of at most \
                four reactor threads — and reads commands from stdin: c@N | \
                w@N=V | metrics [N] | stats | quit" },
    Command { name: "chaos", form: None, positional: None, run: cmd_chaos,
        flags: &[TREE, WORKLOAD, POLICY, SEED,
            opt("--faults", "FAULTS", Some("seed:7,drop:0.05,dup:0.05,delay:0.05")),
            opt("--kill9", "NODE@DELIVERED[,..]", None), TRANSPORT,
            opt("--durability", "memory|wal[:DIR]", None), opt("--fsync-every", "N", Some("8")),
            opt("--snapshot-every", "N", Some("4096"))],
        about: "replays the workload sequentially under --faults and checks \
                every combine against the oracle, every scheduled fault \
                fired, and restarts == crashes + kill9s; exits non-zero on a \
                divergence or a wedged cluster. With --faults none it is the \
                sim<->cluster parity check (`parity: OK`). --kill9 adds \
                process kills and defaults --durability to a fresh temp WAL" },
    Command { name: "mlap", form: None, positional: None, run: cmd_mlap,
        flags: &[opt("--workload", "MLAP_WORKLOAD", Some("adv:4:8")),
            opt("--policy", "MLAP_POLICY", Some("all")), opt("--tree", "TREE", Some("kary:15:2")),
            SEED, JSON],
        about: "multi-level aggregation with delays and deadlines \
                (arXiv:1507.02378, 1701.01936): per-policy service/delay \
                cost, misses, flushes, messages and ratio vs the exact \
                offline optimum; --json emits oat-mlap-v1" },
    Command { name: "query", form: None, positional: Some("QUERY"), run: cmd_query,
        flags: &[opt("--tree", "TREE", Some("kary:7:2")), POLICY,
            opt("--facts", "N", Some("300")), opt("--keys", "K", Some("4")),
            opt("--stream", "uniform|zipf|phases", Some("zipf")), opt("--gap-ms", "N", Some("4")),
            SEED, TRANSPORT, JSON],
        about: "runs a continuous query over a seeded fact stream on a live \
                cluster, printing every partial (value, coverage, staleness, \
                refine seq) and the finals checked against the sequential \
                oracle; exits non-zero on a mismatch or a monotonicity \
                violation. --json emits oat-query-v1" },
    Command { name: "help", form: None, positional: None, flags: &[], about: "", run: cmd_help },
];

const SPECS: &str = "\
SPECS:
  TREE           pair | path:N | star:N | kary:N:K | random:N:SEED
                 | caterpillar:SPINE:LEGS
  POLICY         rww | always | never | ab:A:B | randombreak:B:SEED
                 (`run` also takes all)
  WORKLOAD       uniform:WF:LEN | hotspot:WF:LEN:READERS:WRITERS
                 | zipf:WF:LEN:ALPHA | singlewriter:ROUNDS:WRITES_PER_ROUND
  ITEMS          comma-separated c@NODE and w@NODE=VALUE items
  FAULTS         comma-separated seed:N | drop:P | dup:P | delay:P
                 | kill:FROM-TO@FRAMES | crash:NODE@DELIVERED
                 | kill9:NODE@DELIVERED | torn-tail:MAX | fsync-fail:P
                 (or `none`)
  MLAP_WORKLOAD  adv:DEPTH:LEGS | bursty:BURSTS:SIZE:WINDOW | delay:LEN:GAP
                 (bursty and delay run on --tree)
  MLAP_POLICY    eager | odepth | odepth-prefetch | greedy | all
  QUERY          OP [group by key] [window last-N | tumbling(Tms)]
                 with OP one of sum | min | max | count
";

const EXAMPLES: &str = "\
EXAMPLES:
  oat run --tree kary:64:2 --policy rww --workload uniform:0.5:1000 --seed 7
  oat run --tree star:32 --workload zipf:0.3:2000:1.0 --policy all
  oat trace --tree path:4 --script \"c@0,w@3=10,w@3=20,c@0\"
  oat serve --tree kary:15:2 --policy rww
  oat chaos --tree kary:10:2 --workload uniform:0.5:120 --faults none
  oat mlap --workload adv:4:8 --policy all --json
  oat mlap --workload bursty:6:4:5 --tree kary:15:2 --seed 7
  oat query 'sum group by key window tumbling(100ms)' --stream zipf --keys 4
  oat query 'count group by key' --facts 200 --transport ring --json
";

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match tokens.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("help", &[][..]),
    };
    let Some(cmd) = Command::select(name, rest) else {
        eprintln!("error: unknown command `{name}`\n\n{}", help());
        std::process::exit(2);
    };
    let result = Args::parse(cmd, rest)
        .map_err(|e| {
            let usage: String = cmd.forms().map(Command::usage).collect();
            format!("{e}\nusage:\n{}", usage.trim_end())
        })
        .and_then(|args| (cmd.run)(&args));
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

impl Command {
    /// The entry for `name`: of several forms, the one whose `form`
    /// flag is among `tokens`, else the first.
    fn select(name: &str, tokens: &[String]) -> Option<&'static Command> {
        let mut forms = COMMANDS.iter().filter(|c| c.name == name);
        let first = forms.clone().next()?;
        Some(
            forms
                .find(|c| c.form.is_some_and(|f| tokens.iter().any(|t| t == f)))
                .unwrap_or(first),
        )
    }

    /// Every entry sharing this one's name, itself included.
    fn forms(&self) -> impl Iterator<Item = &'static Command> + '_ {
        COMMANDS.iter().filter(move |c| c.name == self.name)
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// This form's usage line, wrapped as `oat help` prints it.
    fn usage(&self) -> String {
        let items = self
            .positional
            .map(str::to_string)
            .into_iter()
            .chain(self.flags.iter().map(|f| {
                let item = match f.metavar {
                    Some(metavar) => format!("{} {metavar}", f.name),
                    None => f.name.to_string(),
                };
                if f.required {
                    item
                } else {
                    format!("[{item}]")
                }
            }));
        wrap(&format!("  oat {:<9} ", self.name), items)
    }
}

/// `head` followed by `items`, wrapped at 78 columns with continuation
/// lines indented to `head`'s width (`head` is ASCII).
fn wrap(head: &str, items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let mut out = String::new();
    let mut line = head.to_string();
    for item in items {
        let item = item.as_ref();
        if line.len() > head.len() && line.chars().count() + item.chars().count() > 78 {
            out.push_str(line.trim_end());
            out.push('\n');
            line = " ".repeat(head.len());
        }
        line.push_str(item);
        line.push(' ');
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out
}

fn help() -> String {
    let mut s =
        String::from("oat — online aggregation over trees (IPPS 2007), simulator CLI\n\nUSAGE:\n");
    s.extend(COMMANDS.iter().map(Command::usage));
    s.push('\n');
    s.push_str(SPECS);
    s.push_str("\nCOMMANDS:\n");
    for c in COMMANDS.iter().filter(|c| !c.about.is_empty()) {
        s.push_str(&wrap(&format!("  {:<10} ", c.name), c.about.split(' ')));
    }
    s.push('\n');
    s.push_str(EXAMPLES);
    s
}

fn cmd_help(_: &Args) -> Result<(), String> {
    print!("{}", help());
    Ok(())
}

/// One subcommand's arguments, checked against its table entry.
struct Args {
    cmd: &'static Command,
    /// The joined positional words (empty when the command takes none).
    positional: String,
    /// Flags given, by name; a switch maps to "".
    given: HashMap<&'static str, String>,
}

impl Args {
    /// Rejects an undeclared flag, a value flag without a value, a
    /// repeated flag, a stray word and a missing required argument.
    fn parse(cmd: &'static Command, tokens: &[String]) -> Result<Args, String> {
        let mut words = Vec::new();
        let mut given = HashMap::new();
        let mut tokens = tokens.iter().peekable();
        while let Some(tok) = tokens.next() {
            if !tok.starts_with("--") {
                if cmd.positional.is_none() || !given.is_empty() {
                    return Err(format!("unexpected argument `{tok}`"));
                }
                words.push(tok.as_str());
                continue;
            }
            let Some(flag) = cmd.flag(tok) else {
                return Err(
                    match (cmd.forms().any(|c| c.flag(tok).is_some()), cmd.form) {
                        (true, Some(form)) => format!("`{tok}` cannot be combined with `{form}`"),
                        _ => format!("unknown flag `{tok}`"),
                    },
                );
            };
            let value = match flag.metavar {
                None => String::new(),
                Some(metavar) => match tokens.next_if(|v| !v.starts_with("--")) {
                    Some(v) => v.clone(),
                    None => return Err(format!("`{tok}` needs a value ({metavar})")),
                },
            };
            if given.insert(flag.name, value).is_some() {
                return Err(format!("`{tok}` given twice"));
            }
        }
        if let (Some(placeholder), true) = (cmd.positional, words.is_empty()) {
            return Err(format!("missing {placeholder}"));
        }
        if let Some(f) = cmd
            .flags
            .iter()
            .find(|f| f.required && !given.contains_key(f.name))
        {
            return Err(format!("missing `{}`", f.name));
        }
        Ok(Args {
            cmd,
            positional: words.join(" "),
            given,
        })
    }

    /// The value given for `name`, else its default.
    fn get(&self, name: &str) -> Option<&str> {
        let flag = self.cmd.flag(name).expect("flag declared in the table");
        self.given.get(name).map(String::as_str).or(flag.default)
    }

    /// The value of a required or defaulted flag.
    fn str(&self, name: &str) -> &str {
        self.get(name).expect("a required or defaulted flag")
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let s = self.str(name);
        s.parse().map_err(|_| format!("bad {name} `{s}`"))
    }

    fn transport(&self) -> Result<TransportKind, String> {
        let s = self.str("--transport");
        TransportKind::parse(s)
            .ok_or_else(|| format!("bad --transport `{s}` (want tcp | uds | ring)"))
    }

    /// `--workload` generated on `tree` from `--seed`.
    fn workload(&self, tree: &Tree) -> Result<Vec<Request<i64>>, String> {
        parse_workload(self.str("--workload"), tree, self.num("--seed")?)
    }
}

/// A number inside a `kind` spec.
fn spec_num<T: std::str::FromStr>(s: &str, kind: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("bad number `{s}` in {kind} spec"))
}

fn parse_tree(spec: &str) -> Result<Tree, String> {
    let num = |s: &str| spec_num::<usize>(s, "tree");
    // Every shape needs at least one node; a k-ary tree needs k ≥ 1.
    let pos = |s: &str| match num(s)? {
        0 => Err(format!("tree spec `{spec}` needs positive sizes")),
        v => Ok(v),
    };
    match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["pair"] => Ok(Tree::pair()),
        ["path", n] => Ok(Tree::path(pos(n)?)),
        ["star", n] => Ok(Tree::star(pos(n)?)),
        ["kary", n, k] => Ok(Tree::kary(pos(n)?, pos(k)?)),
        ["random", n, seed] => Ok(oat::workloads::random_tree(
            pos(n)?,
            spec_num(seed, "tree")?,
        )),
        ["caterpillar", s, l] => Ok(oat::workloads::caterpillar(pos(s)?, num(l)?)),
        _ => Err(format!("bad tree spec `{spec}`")),
    }
}

fn parse_workload(spec: &str, tree: &Tree, seed: u64) -> Result<Vec<Request<i64>>, String> {
    let bad = |why: &str| format!("workload spec `{spec}`: {why}");
    let wf = |s: &str| match spec_num::<f64>(s, "workload")? {
        w if (0.0..=1.0).contains(&w) => Ok(w),
        _ => Err(bad("the write fraction must be in [0, 1]")),
    };
    let u = |s: &str| spec_num::<usize>(s, "workload");
    // Hotspot reader and writer sets hold 1..=n nodes.
    let nodes = |s: &str| match u(s)? {
        k if (1..=tree.len()).contains(&k) => Ok(k),
        _ => Err(bad(&format!("hotspot sets need 1..={} nodes", tree.len()))),
    };
    let seq = match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["uniform", w, len] => oat::workloads::uniform(tree, u(len)?, wf(w)?, seed),
        ["hotspot", w, len, r, wr] => {
            oat::workloads::hotspot(tree, u(len)?, wf(w)?, nodes(r)?, nodes(wr)?, seed)
        }
        ["zipf", w, len, alpha] => {
            let alpha = match spec_num::<f64>(alpha, "workload")? {
                a if a > 0.0 && a.is_finite() => a,
                _ => return Err(bad("the zipf exponent must be positive")),
            };
            oat::workloads::zipf(tree, u(len)?, wf(w)?, alpha, seed)
        }
        ["singlewriter", rounds, wpr] => {
            oat::workloads::single_writer(tree, u(rounds)?, u(wpr)?, NodeId(0))
        }
        _ => return Err(format!("bad workload spec `{spec}`")),
    };
    if seq.is_empty() {
        return Err(bad("generates no requests"));
    }
    Ok(seq)
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
    // (a,b) and random-break parameters count requests: at least one.
    let u = |s: &str| match spec_num::<u32>(s, "policy")? {
        0 => Err(format!("policy spec `{spec}` needs positive parameters")),
        v => Ok(v),
    };
    match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["rww"] => Ok(PolicyChoice::Rww),
        ["always"] => Ok(PolicyChoice::Always),
        ["never"] => Ok(PolicyChoice::Never),
        ["ab", a, b] => Ok(PolicyChoice::Ab(u(a)?, u(b)?)),
        ["randombreak", b, seed] => Ok(PolicyChoice::RandomBreak(u(b)?, spec_num(seed, "policy")?)),
        _ => Err(format!("bad policy spec `{spec}`")),
    }
}

/// Runs `$body` with `$spec` bound to the concrete policy value named by
/// `$choice` — the one dynamic→static dispatch point for the commands,
/// which need a statically typed `PolicySpec` for `Engine::new` or
/// `Cluster::spawn`.
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

/// Replays `seq` under `spec` in the sequential simulator and prints
/// its row of `oat run`: messages, ratios to OPT and to the NOPT lower
/// bound `lb`, and combine latency.
fn print_policy_row<S: PolicySpec>(
    spec: &S,
    tree: &Tree,
    seq: &[Request<i64>],
    prewarm: bool,
    opt: u64,
    lb: u64,
) {
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
    let reads = read_lats.len();
    // A workload without combines has no read latency to report.
    let per_read = |x: f64, prec: usize| {
        if reads > 0 {
            format!("{:.prec$}", x / reads as f64)
        } else {
            "-".into()
        }
    };
    let msgs: u64 = chunk.per_request_msgs.iter().sum();
    println!(
        "  {:<18} {:>9} msgs  {:>7.3} msgs/req  ratio vs OPT {:>6}  vs NOPT-lb {:>6}  read lat {:>5} ({:>3}% local)",
        spec.name(),
        msgs,
        msgs as f64 / seq.len() as f64,
        if opt > 0 { format!("{:.3}", msgs as f64 / opt as f64) } else { "-".into() },
        if lb > 0 { format!("{:.3}", msgs as f64 / lb as f64) } else { "-".into() },
        per_read(read_lats.iter().map(|&l| l as f64).sum(), 2),
        per_read(read_lats.iter().filter(|&&l| l == 0).count() as f64 * 100.0, 0),
    );
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let tree = parse_tree(a.str("--tree"))?;
    let seq = a.workload(&tree)?;
    let choices = match a.str("--policy") {
        "all" => vec![
            PolicyChoice::Rww,
            PolicyChoice::Ab(1, 3),
            PolicyChoice::Ab(2, 2),
            PolicyChoice::RandomBreak(2, a.num("--seed")?),
            PolicyChoice::Always,
            PolicyChoice::Never,
        ],
        spec => vec![parse_policy(spec)?],
    };
    let opt = opt_total_cost(&tree, &seq);
    let lb = nopt_total_lower_bound(&tree, &seq);
    println!(
        "tree: {} nodes, {} edges; workload: {} requests ({} combines)",
        tree.len(),
        tree.num_edges(),
        seq.len(),
        seq.iter().filter(|q| q.op.is_combine()).count()
    );
    for choice in &choices {
        // Always-lease is billed from its steady state: every lease set.
        let prewarm = matches!(choice, PolicyChoice::Always);
        with_policy!(choice, spec => print_policy_row(&spec, &tree, &seq, prewarm, opt, lb));
    }
    println!(
        "  {:<18} {opt:>9} msgs (offline lease-based optimum)",
        "OPT"
    );
    Ok(())
}

fn cmd_trace_script(a: &Args) -> Result<(), String> {
    let tree = parse_tree(a.str("--tree"))?;
    let script = parse_script(a.str("--script"))?;
    // Traces are policy-generic but the renderer needs a concrete
    // engine; only RWW is supported here (the interesting one).
    if !matches!(parse_policy(a.str("--policy"))?, PolicyChoice::Rww) {
        return Err("trace --script supports --policy rww only".into());
    }
    let mut eng: Engine<RwwSpec, SumI64> =
        Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
    let trace = record_sequential(&mut eng, &script);
    print!("{}", trace.render());
    println!("\nfinal lease graph:");
    print!("{}", render_leases(&eng));
    println!("\ntotal messages: {}", eng.stats().total());
    Ok(())
}

/// `oat trace --workload`: record a live trace of the sim and net
/// runtimes executing one workload, then export it.
fn cmd_trace_workload(a: &Args) -> Result<(), String> {
    let tree = parse_tree(a.str("--tree"))?;
    let seq = a.workload(&tree)?;
    let depth: usize = a.num("--pipeline")?;
    let plan = FaultPlan::parse(a.str("--faults"))?;
    let (out, chrome) = (a.str("--out"), a.get("--chrome"));
    with_policy!(&parse_policy(a.str("--policy"))?, spec =>
        trace_record(&tree, &spec, &seq, depth, plan, out, chrome))
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

fn cmd_top(a: &Args) -> Result<(), String> {
    let tree = parse_tree(a.str("--tree"))?;
    let seq = a.workload(&tree)?;
    let depth: usize = a.num("--pipeline")?;
    let interval: u64 = a.num("--interval-ms")?;
    let ticks: u32 = a.num("--ticks")?;
    with_policy!(&parse_policy(a.str("--policy"))?, spec =>
        run_top(&tree, &spec, &seq, depth, interval, ticks))
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
        "  {:>4}  {:>8} {:>6} {:>6}  {:>5} {:>7}  {:>6} {:>8}",
        "node", "served", "queue", "peak", "taken", "granted", "reconn", "restarts"
    );
    // The busiest nodes by combines served; nodes whose poll failed (a
    // node may be mid-crash-restart under --faults) become dimmed rows.
    let mut ok: Vec<&oat::net::NodeMetrics> =
        rows.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
    ok.sort_by_key(|m| std::cmp::Reverse(m.combines_served));
    for m in ok.iter().take(8) {
        let _ = writeln!(
            s,
            "  {:>4}  {:>8} {:>6} {:>6}  {:>5} {:>7}  {:>6} {:>8}",
            m.node,
            m.combines_served,
            m.queue_depth,
            m.queue_peak,
            m.leases_taken,
            m.leases_granted,
            m.reconnects,
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

fn cmd_serve(a: &Args) -> Result<(), String> {
    let tree = parse_tree(a.str("--tree"))?;
    let transport = a.transport()?;
    with_policy!(&parse_policy(a.str("--policy"))?, spec =>
        serve_cluster(&tree, &spec, transport))
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
            .map(|m| Some(m.to_json().to_pretty()))
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

fn cmd_chaos(a: &Args) -> Result<(), String> {
    let tree = parse_tree(a.str("--tree"))?;
    let seq = a.workload(&tree)?;
    let mut plan = FaultPlan::parse(a.str("--faults"))?;
    if let Some(kills) = a.get("--kill9") {
        // Shorthand for the fault grammar's `kill9:NODE@DELIVERED` items.
        let items: Vec<String> = kills.split(',').map(|k| format!("kill9:{k}")).collect();
        plan.kill9s
            .extend(FaultPlan::parse(&items.join(","))?.kill9s);
    }
    let (fsync_every, snapshot_every) = (a.num("--fsync-every")?, a.num("--snapshot-every")?);
    let wal = |dir: std::path::PathBuf| {
        let mut wal = WalConfig::new(dir);
        wal.fsync_every = fsync_every;
        wal.snapshot_every = snapshot_every;
        DurabilityMode::Wal(wal)
    };
    // A process kill needs somewhere durable to recover from, so
    // `--kill9` without an explicit backend gets a fresh WAL in a
    // temp dir, removed when the run ends. A fresh dir also arms the
    // ci cross-check: cold start finds nothing, so every WAL replay
    // is a kill9 recovery.
    let fresh_dir = std::env::temp_dir().join(format!("oat-chaos-wal-{}", std::process::id()));
    let (durability, fresh_wal) = match a.get("--durability") {
        None if plan.kill9s.is_empty() => (DurabilityMode::Memory, false),
        None | Some("wal") => {
            let _ = std::fs::remove_dir_all(&fresh_dir);
            (wal(fresh_dir.clone()), true)
        }
        Some("memory") => (DurabilityMode::Memory, false),
        Some(s) => match s.strip_prefix("wal:") {
            Some(dir) if !dir.is_empty() => (wal(dir.into()), false),
            _ => return Err(format!("bad --durability `{s}` (want memory | wal[:DIR])")),
        },
    };
    let cfg = NetConfig {
        durability,
        transport: a.transport()?,
        ..NetConfig::default()
    };
    let choice = parse_policy(a.str("--policy"))?;
    let verdict =
        with_policy!(&choice, spec => chaos_run(&tree, &spec, &seq, plan, cfg, fresh_wal));
    if fresh_wal {
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }
    verdict
}

/// How the cluster's nodes sit on its reactor threads: the pool size,
/// the smallest and largest share, and how many tree edges join nodes on
/// different reactors (each hop over one is a thread switch).
fn placement_summary(cluster: &Cluster<SumI64>) -> String {
    let tree = cluster.tree();
    let pool = cluster.threads_spawned();
    let mut sizes = vec![0usize; pool];
    for u in tree.nodes() {
        sizes[cluster.reactor_of(u)] += 1;
    }
    let edges = tree.undirected_edges();
    let crossing = edges
        .iter()
        .filter(|&&(a, b)| cluster.reactor_of(a) != cluster.reactor_of(b))
        .count();
    format!(
        "{pool} reactors ({}–{} nodes each), {crossing} of {} tree edges cross reactors",
        sizes.iter().min().unwrap_or(&0),
        sizes.iter().max().unwrap_or(&0),
        edges.len(),
    )
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
    let placement = placement_summary(&cluster);
    let report = cluster.shutdown();
    println!(
        "  injected:  drops {drops}, dups {dups}, delays {delays}, \
         conns killed {kills}, crashes {crashes}, kill9s {kill9s}, \
         torn tails {torn_tails}, fsync fails {fsync_fails}"
    );
    println!(
        "  recovered: reconnects {}, retransmits {}, restarts {} (kill9 {})",
        report.faults.reconnects,
        report.faults.retransmits,
        report.faults.restarts,
        report.faults.kill9s,
    );
    println!(
        "  acks:      {:.3} standalone per request ({} in all)",
        report.standalone_acks as f64 / seq.len() as f64,
        report.standalone_acks,
    );
    println!("  placement: {placement}");
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
    let num = |s: &str| spec_num::<usize>(s, "mlap workload");
    let time = |s: &str| spec_num::<u64>(s, "mlap workload");
    match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["adv", d, l] => Ok(oat::workloads::mlap::adversarial_deadline(num(d)?, num(l)?)),
        ["bursty", b, s, w] => Ok(oat::workloads::mlap::bursty_deadline(
            tree,
            num(b)?,
            num(s)?,
            time(w)?,
            seed,
        )),
        ["delay", len, gap] => Ok(oat::workloads::mlap::uniform_delay(
            tree,
            num(len)?,
            time(gap)?,
            seed,
        )),
        _ => Err(format!(
            "bad mlap workload spec `{spec}` \
             (want adv:DEPTH:LEGS | bursty:BURSTS:SIZE:WINDOW | delay:LEN:GAP)"
        )),
    }
}

fn cmd_mlap(a: &Args) -> Result<(), String> {
    let tree = parse_tree(a.str("--tree"))?;
    let seed: u64 = a.num("--seed")?;
    let wspec = a.str("--workload");
    let inst = parse_mlap_workload(wspec, &tree, seed)?;
    let pspec = a.str("--policy");
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
    if a.get("--json").is_some() {
        let policies = runs.iter().map(|r| {
            Json::obj()
                .with("name", r.policy.as_str())
                .with("service_cost", r.service_cost)
                .with("delay_cost", r.delay_cost)
                .with("deadline_misses", r.deadline_misses)
                .with("flushes", r.flushes.len())
                .with("messages", r.messages)
                .with("total_cost", r.total_cost())
                .with("ratio_vs_opt", ratio_of(r.total_cost()))
        });
        let doc = Json::obj()
            .with("schema", "oat-mlap-v1")
            .with("model", inst.model.name())
            .with("workload", wspec)
            .with("seed", seed)
            .with("nodes", inst.tree.len())
            .with("depth", depth)
            .with("requests", inst.requests.len())
            .with("opt", opt)
            .with("policies", policies.collect::<Vec<_>>());
        println!("{}", doc.to_line());
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

fn cmd_query(a: &Args) -> Result<(), String> {
    let qspec: oat::query::QuerySpec = a.positional.parse()?;
    let tree_spec = a.str("--tree");
    let tree = parse_tree(tree_spec)?;
    let policy_spec = a.str("--policy");
    let policy = parse_policy(policy_spec)?;
    let facts_n: usize = a.num("--facts")?;
    let keys: u32 = a.num("--keys")?;
    let gap_ms: u64 = a.num("--gap-ms")?;
    let seed: u64 = a.num("--seed")?;
    let stream = a.str("--stream");
    let facts = oat::workloads::facts::facts_by_name(stream, facts_n, keys, gap_ms, seed)
        .ok_or_else(|| format!("bad --stream `{stream}` (want uniform | zipf | phases)"))?;
    let transport = a.transport()?;
    let cfg = NetConfig {
        transport,
        ..NetConfig::default()
    };
    let run = with_policy!(&policy, spec =>
        run_query_on(&spec, &tree, &qspec, &facts, cfg))?;
    let oracle = oat::query::oracle_finals(&qspec, &facts);
    let mut finals = run.finals.clone();
    finals.sort_by_key(|f| (f.key, f.window));
    let want = |f: &oat::query::Final| {
        let o = oracle
            .iter()
            .find(|o| (o.key, o.window) == (f.key, f.window));
        o.map(|o| o.value)
    };
    if a.get("--json").is_some() {
        let config = Json::obj()
            .with("stream", stream)
            .with("facts", facts.len())
            .with("keys", keys)
            .with("seed", seed)
            .with("transport", transport.name())
            .with("tree", tree_spec)
            .with("policy", policy_spec);
        let s = &run.stats;
        let refinement = Json::obj()
            .with("elapsed_ms", s.elapsed_ms)
            .with("first_partial_p50_ms", s.first_partial_p50_ms)
            .with("first_partial_p99_ms", s.first_partial_p99_ms)
            .with("t95_coverage_ms", s.t95_coverage_ms)
            .with("partials_total", s.partials_total)
            .with("pushes_rx", s.pushes_rx);
        let finals = finals.iter().map(|f| {
            Json::obj()
                .with("key", f.key)
                .with("window", f.window)
                .with("value", f.value)
                .with("oracle", want(f))
        });
        let partials = run.partials.iter().map(|p| {
            Json::obj()
                .with("key", p.key)
                .with("window", p.window)
                .with("refine_seq", p.refine_seq)
                .with("value", p.value)
                .with("coverage", p.coverage)
                .with("last_write_seq", p.last_write_seq)
                .with("staleness", p.staleness)
                .with("at_ms", p.at_ms)
                .with("wall_ms", p.wall_ms)
                .with("final", p.is_final)
        });
        let doc = Json::obj()
            .with("schema", "oat-query-v1")
            .with("spec", run.spec.to_string())
            .with("config", config)
            .with("oracle_match", run.matches_oracle(&facts))
            .with("coverage_monotone", run.coverage_monotone())
            .with("refine_seq_monotone", run.refine_seq_monotone())
            .with("min_partials_per_key", run.min_partials_per_key())
            .with("refinement", refinement)
            .with("finals", finals.collect::<Vec<_>>())
            .with("partials", partials.collect::<Vec<_>>());
        println!("{}", doc.to_pretty());
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
        println!("finals vs sequential oracle:");
        for f in &finals {
            let want = want(f);
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
    run.verdict(&facts)
        .map_err(|e| format!("query verdict {e}"))
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

    fn parse(line: &str) -> Result<Args, String> {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let cmd = Command::select(&tokens[0], &tokens[1..]).ok_or("unknown command")?;
        Args::parse(cmd, &tokens[1..])
    }

    #[test]
    fn args_follow_the_table() {
        let a = parse("run --tree pair --seed 9 --workload uniform:0.5:9").unwrap();
        assert_eq!((a.str("--tree"), a.num::<u64>("--seed")), ("pair", Ok(9)));
        assert_eq!(a.str("--policy"), "rww", "defaulted");
        let a = parse("trace --tree pair --workload uniform:0.5:9").unwrap();
        assert_eq!(
            (a.str("--out"), a.get("--chrome")),
            ("oat-trace.jsonl", None)
        );
        let q = parse("query sum group by key --json").unwrap();
        assert_eq!(
            (q.positional.as_str(), q.get("--json")),
            ("sum group by key", Some(""))
        );
        for (line, err) in [
            ("run --tree pair", "missing `--workload`"),
            ("query --json", "missing QUERY"),
            ("query sum --json max", "unexpected argument `max`"),
            (
                "trace --tree pair --script c@0 --seed 1",
                "`--seed` cannot be combined with `--script`",
            ),
            ("mlap --seed --json", "`--seed` needs a value (N)"),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(err), "{line}");
        }
    }
}
